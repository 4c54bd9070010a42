#include "core/admission.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/activity.h"

namespace tpm {

namespace {

void SortUnique(std::vector<ProcessId>* pids) {
  std::sort(pids->begin(), pids->end());
  pids->erase(std::unique(pids->begin(), pids->end()), pids->end());
}

bool IsActiveProcess(const SchedulerView& view, ProcessId pid) {
  std::optional<SchedulerView::ProcessView> p = view.FindProcess(pid);
  return p.has_value() && p->state->IsActive();
}

}  // namespace

std::vector<ProcessId> ConflictingPredecessors(const SchedulerView& view,
                                               ProcessId self,
                                               ServiceId service) {
  std::vector<ProcessId> preds;
  for (ServiceId partner : view.conflict_spec().PartnersOf(service)) {
    view.ForEachEmitter(partner, [&](ProcessId p) {
      if (p != self) preds.push_back(p);
    });
  }
  SortUnique(&preds);
  return preds;
}

bool RemainderConflicts(const SchedulerView& view,
                        const SchedulerView::ProcessView& other,
                        ServiceId service, bool include_compensations) {
  const ConflictSpec& spec = view.conflict_spec();
  for (const ActivityDecl& decl : other.def->activities()) {
    const bool relevant =
        !other.state->IsCommitted(decl.id) ||
        (include_compensations && IsCompensatableKind(decl.kind));
    if (relevant && spec.ServicesConflict(service, decl.service)) {
      return true;
    }
  }
  return false;
}

std::vector<ProcessId> VirtualCompletionTargets(const SchedulerView& view,
                                                ProcessId self,
                                                ServiceId service) {
  // A process whose remainder conflicts with `service` has an activity on
  // one of its partners (RemainderConflicts tests exactly that relation),
  // so the partners' footprint rows hold every target.
  std::vector<ProcessId> targets;
  for (ServiceId partner : view.conflict_spec().PartnersOf(service)) {
    view.ForEachActiveOnService(partner, [&](ProcessId p) {
      if (p != self) targets.push_back(p);
    });
  }
  SortUnique(&targets);
  std::erase_if(targets, [&](ProcessId p) {
    std::optional<SchedulerView::ProcessView> other = view.FindProcess(p);
    return !other.has_value() || !RemainderConflicts(view, *other, service);
  });
  return targets;
}

bool EmittedConflictsWithRemainder(const SchedulerView& view,
                                   ProcessId emitter,
                                   const SchedulerView::ProcessView& rt,
                                   ActivityId exclude) {
  const ConflictSpec& spec = view.conflict_spec();
  for (const ActivityDecl& decl : rt.def->activities()) {
    if (decl.id == exclude) continue;
    const bool pending = !rt.state->IsCommitted(decl.id) ||
                         IsCompensatableKind(decl.kind);
    if (!pending) continue;
    for (ServiceId partner : spec.PartnersOf(decl.service)) {
      if (view.HasEmitted(emitter, partner)) return true;
    }
  }
  return false;
}

bool QuasiCommitAdmissible(const SchedulerView& view,
                           const SchedulerView::ProcessView& blocker,
                           const SchedulerView::ProcessView& requester) {
  if (blocker.state->recovery_state() !=
      RecoveryState::kForwardRecoverable) {
    return false;
  }
  const ConflictSpec& spec = view.conflict_spec();
  std::set<ServiceId> remaining;
  for (const ActivityDecl& decl : blocker.def->activities()) {
    const bool committed = blocker.state->IsCommitted(decl.id);
    if (!committed || IsCompensatableKind(decl.kind)) {
      remaining.insert(decl.service);
    }
  }
  for (const ActivityDecl& decl : requester.def->activities()) {
    for (ServiceId r : remaining) {
      if (spec.ServicesConflict(r, decl.service)) return false;
    }
  }
  return true;
}

std::vector<ProcessId> ActiveBlockers(const SchedulerView& view,
                                      const SchedulerView::ProcessView& rt,
                                      ActivityId act) {
  ServiceId service = rt.def->activity(act).service;
  std::vector<ProcessId> candidates =
      ConflictingPredecessors(view, rt.pid, service);
  view.serialization_graph().ForEachPredecessor(
      rt.pid, [&](ProcessId p) { candidates.push_back(p); });
  SortUnique(&candidates);
  std::vector<ProcessId> blockers;
  for (ProcessId p : candidates) {
    std::optional<SchedulerView::ProcessView> other = view.FindProcess(p);
    if (!other.has_value() || !other->state->IsActive()) continue;
    if (view.options().quasi_commit_optimization &&
        QuasiCommitAdmissible(view, *other, rt)) {
      continue;
    }
    blockers.push_back(p);
  }
  return blockers;  // candidates were sorted, so blockers are too
}

bool ActiveProcessReachableFrom(const SchedulerView& view, ProcessId pid) {
  return view.serialization_graph().AnyReachable(
      pid, [&](ProcessId w) { return IsActiveProcess(view, w); });
}

// ---------------------------------------------------------------------------
// Guards.

namespace {

/// kSerial: one process at a time, via an execution token taken at the
/// first invocation and returned at termination.
class SerialAdmissionGuard : public AdmissionGuard {
 public:
  AdmissionDecision Admit(const SchedulerView::ProcessView& rt,
                          ActivityId act) override {
    (void)act;
    if (token_.valid() && token_ != rt.pid) return AdmissionDecision::kDefer;
    return AdmissionDecision::kAdmit;
  }

  void OnExecute(ProcessId pid, ServiceId service) override {
    (void)service;
    if (!token_.valid()) token_ = pid;
  }

  void OnProcessTerminated(ProcessId pid) override {
    if (token_ == pid) token_ = ProcessId();
  }

  void Reset() override { token_ = ProcessId(); }

 private:
  ProcessId token_;
};

/// kTwoPhaseLocking: strict 2PL at service granularity. Locks accumulate
/// per process and are released only at process termination.
class TwoPhaseLockingGuard : public AdmissionGuard {
 public:
  explicit TwoPhaseLockingGuard(const SchedulerView& view) : view_(view) {}

  AdmissionDecision Admit(const SchedulerView::ProcessView& rt,
                          ActivityId act) override {
    ServiceId service = rt.def->activity(act).service;
    if (!LocksAvailable(rt.pid, service)) return AdmissionDecision::kDefer;
    return AdmissionDecision::kAdmit;
  }

  void OnExecute(ProcessId pid, ServiceId service) override {
    locks_[pid].insert(service);
  }

  void OnProcessTerminated(ProcessId pid) override { locks_.erase(pid); }

  void Reset() override { locks_.clear(); }

 private:
  bool LocksAvailable(ProcessId pid, ServiceId service) const {
    const ConflictSpec& spec = view_.conflict_spec();
    for (const auto& [holder, locks] : locks_) {
      if (holder == pid) continue;
      if (!IsActiveProcess(view_, holder)) continue;
      for (ServiceId held : locks) {
        if (held == service || spec.ServicesConflict(held, service)) {
          return false;
        }
      }
    }
    return true;
  }

  const SchedulerView& view_;
  std::map<ProcessId, std::set<ServiceId>> locks_;
};

/// kUnsafe: serialization-graph testing only — no recovery reasoning, no
/// Lemma 1 deferral. The negative control of §2.2/Figure 1.
class UnsafeAdmissionGuard : public AdmissionGuard {
 public:
  explicit UnsafeAdmissionGuard(const SchedulerView& view) : view_(view) {}

  AdmissionDecision Admit(const SchedulerView::ProcessView& rt,
                          ActivityId act) override {
    ServiceId service = rt.def->activity(act).service;
    std::vector<ProcessId> preds =
        ConflictingPredecessors(view_, rt.pid, service);
    if (view_.serialization_graph().WouldCycle(rt.pid, preds)) {
      return AdmissionDecision::kFail;
    }
    return AdmissionDecision::kAdmit;
  }

 private:
  const SchedulerView& view_;
};

/// kPred: the paper's protocol — SGT plus the Lemma 1 deferral, crossing
/// prevention and the §3.5 completion pre-order checks.
class PredAdmissionGuard : public AdmissionGuard {
 public:
  PredAdmissionGuard(const SchedulerView& view, SchedulerStats* stats)
      : view_(view), stats_(stats) {}

  AdmissionDecision Admit(const SchedulerView::ProcessView& rt,
                          ActivityId act) override {
    const SchedulerOptions& options = view_.options();
    const SerializationGraph& graph = view_.serialization_graph();
    const ActivityDecl& decl = rt.def->activity(act);
    std::vector<ProcessId> preds =
        ConflictingPredecessors(view_, rt.pid, decl.service);
    if (graph.WouldCycle(rt.pid, preds)) {
      // Admitting now would close a serialization cycle. If an active
      // process sits on the cycle path it may still abort (its cancelled
      // pairs then release the edges): wait. If every participant has
      // terminated the cycle is permanent: fail the activity, triggering
      // the alternative execution path — except for retriables, which
      // cannot fail (Def. 3): they execute anyway, trading formal
      // reducibility for the guaranteed-termination property.
      if (ActiveProcessReachableFrom(view_, rt.pid)) {
        return AdmissionDecision::kDefer;
      }
      if (IsRetriableKind(decl.kind)) {
        ++stats_->forced_executions;
        return AdmissionDecision::kAdmit;
      }
      return AdmissionDecision::kFail;
    }
    // Crossing prevention: executing after a conflicting activity of an
    // active P_i that will FORWARD-touch this service again (visible
    // from its definition) guarantees antisymmetric conflict edges — a
    // future cycle with a forced abort. Wait for P_i instead. Future
    // *compensations* of P_i do not count: a later a_ik^-1 is handled
    // correctly by the reverse-order cascade, not doomed. Processes done
    // with the service overlap freely (the Figure 7 pipeline
    // parallelism PRED is about).
    if (options.ablation.crossing_prevention) {
      for (ProcessId p : preds) {
        std::optional<SchedulerView::ProcessView> other =
            view_.FindProcess(p);
        if (!other.has_value() || !other->state->IsActive()) continue;
        if (RemainderConflicts(view_, *other, decl.service,
                               /*include_compensations=*/false)) {
          return AdmissionDecision::kDefer;
        }
      }
    }
    if (IsNonCompensatable(decl.kind) && options.ablation.lemma1_deferral) {
      std::vector<ProcessId> blockers = ActiveBlockers(view_, rt, act);
      if (!blockers.empty()) {
        if (options.defer_mode == DeferMode::kDelayExecution) {
          return AdmissionDecision::kDefer;
        }
        // kPrepared2PC: admit into the prepared state; the commit stays
        // invisible until release, so no pre-ordering hazard arises.
        return AdmissionDecision::kAdmit;
      }
      // No direct blockers: the activity would commit IMMEDIATELY.
      // §3.5: a committed non-compensatable activity conflicting with the
      // *potential completion* of an active process P_i pre-orders this
      // process before P_i (the completion activity would follow it in
      // every completed schedule). Committing it now is unsafe if P_i
      // already reaches us in the serialization graph, or if P_i's
      // emitted activities conflict with our own remainder (the reverse
      // edge is then inevitable): defer until P_i resolves.
      if (options.ablation.completion_preorder) {
        for (ProcessId v :
             VirtualCompletionTargets(view_, rt.pid, decl.service)) {
          if (graph.Reaches(v, rt.pid)) return AdmissionDecision::kDefer;
          if (EmittedConflictsWithRemainder(view_, v, rt, act)) {
            return AdmissionDecision::kDefer;
          }
        }
      }
    }
    return AdmissionDecision::kAdmit;
  }

 private:
  const SchedulerView& view_;
  SchedulerStats* stats_;
};

}  // namespace

std::unique_ptr<AdmissionGuard> MakeAdmissionGuard(const SchedulerView& view,
                                                   SchedulerStats* stats) {
  switch (view.options().protocol) {
    case AdmissionProtocol::kSerial:
      return std::make_unique<SerialAdmissionGuard>();
    case AdmissionProtocol::kTwoPhaseLocking:
      return std::make_unique<TwoPhaseLockingGuard>(view);
    case AdmissionProtocol::kUnsafe:
      return std::make_unique<UnsafeAdmissionGuard>(view);
    case AdmissionProtocol::kPred:
      break;
  }
  return std::make_unique<PredAdmissionGuard>(view, stats);
}

}  // namespace tpm
