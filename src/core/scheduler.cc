#include "core/scheduler.h"

#include <algorithm>
#include <tuple>

#include "common/str_util.h"
#include "core/flex_structure.h"
#include "core/pred.h"

namespace tpm {

namespace {
/// Safety cap on re-invocations of one retriable activity or completion
/// step (Def. 3 promises finitely many); exceeding it is reported as a
/// subsystem that violates Def. 3.
constexpr int kMaxRetries = 1000;

/// Inserts `pid` into the ascending `row` unless present. Pids mostly
/// arrive ascending, so the common case is an append.
void InsertSorted(std::vector<ProcessId>& row, ProcessId pid) {
  if (row.empty() || row.back() < pid) {
    row.push_back(pid);
    return;
  }
  auto it = std::lower_bound(row.begin(), row.end(), pid);
  if (it == row.end() || *it != pid) row.insert(it, pid);
}

void EraseSorted(std::vector<ProcessId>& row, ProcessId pid) {
  auto it = std::lower_bound(row.begin(), row.end(), pid);
  if (it != row.end() && *it == pid) row.erase(it);
}

/// The row of `service` in a dense per-service table, or null when the
/// service has none.
template <typename Rows>
auto RowOf(Rows& rows, const ConflictSpec& spec, ServiceId service)
    -> decltype(&rows[0]) {
  const int index = spec.IndexOf(service);
  if (index < 0 || static_cast<size_t>(index) >= rows.size()) return nullptr;
  return &rows[static_cast<size_t>(index)];
}
}  // namespace

TransactionalProcessScheduler::TransactionalProcessScheduler(
    SchedulerOptions options, RecoveryLog* log)
    : options_(options), log_(log) {
  clock_ = options_.clock != nullptr ? options_.clock : &owned_clock_;
  spec_.set_op_commutativity_enabled(options_.use_op_commutativity);
  guard_ = MakeAdmissionGuard(*this, &stats_);
}

Status TransactionalProcessScheduler::RegisterSubsystem(Subsystem* subsystem) {
  CheckThread("RegisterSubsystem");
  if (subsystem == nullptr) {
    return Status::InvalidArgument("null subsystem");
  }
  for (ServiceId service : subsystem->services().AllIds()) {
    if (routing_.count(service) > 0) {
      return Status::AlreadyExists(
          StrCat("service ", service, " already routed"));
    }
    routing_[service] = subsystem;
  }
  subsystems_.push_back(subsystem);
  subsystem->services().DeriveConflicts(&spec_);
  // Intern every routed service so the emitter index has a dense row for
  // it even before any conflict mentions it.
  for (ServiceId service : subsystem->services().AllIds()) {
    spec_.RegisterService(service);
  }
  EnsureServiceRows();
  return Status::OK();
}

void TransactionalProcessScheduler::AddConflict(ServiceId a, ServiceId b) {
  CheckThread("AddConflict");
  spec_.AddConflict(a, b);
  EnsureServiceRows();
}

Result<Subsystem*> TransactionalProcessScheduler::RouteService(
    ServiceId service) const {
  auto it = routing_.find(service);
  if (it == routing_.end()) {
    return Status::NotFound(StrCat("service ", service, " not registered"));
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Dense runtime table / emitter index / SchedulerView.

const TransactionalProcessScheduler::ProcessRuntime*
TransactionalProcessScheduler::FindRuntime(ProcessId pid) const {
  if (pid.value() < 1) return nullptr;
  size_t slot = static_cast<size_t>(pid.value()) - 1;
  return slot < runtimes_.size() ? runtimes_[slot].get() : nullptr;
}

void TransactionalProcessScheduler::EmplaceRuntime(
    ProcessId pid, std::unique_ptr<ProcessRuntime> rt) {
  size_t slot = static_cast<size_t>(pid.value()) - 1;
  if (slot >= runtimes_.size()) runtimes_.resize(slot + 1);
  runtimes_[slot] = std::move(rt);
  InsertSorted(active_pids_, pid);
  AddFootprint(*runtimes_[slot]);
}

void TransactionalProcessScheduler::DeactivatePid(const ProcessRuntime& rt) {
  EraseSorted(active_pids_, rt.pid);
  DropFromRows(service_footprint_, rt);
}

void TransactionalProcessScheduler::MarkPruned(ProcessId pid) {
  const size_t slot = static_cast<size_t>(pid.value() - 1);
  if (slot >= pruned_.size()) pruned_.resize(slot + 1, 0);
  pruned_[slot] = 1;
  if (options_.reclaim_terminated) reclaim_queue_.push_back(pid);
}

std::unique_ptr<TransactionalProcessScheduler::ProcessRuntime>
TransactionalProcessScheduler::AcquireRuntime(ProcessId pid,
                                              const ProcessDef* def) {
  if (runtime_pool_.empty()) {
    return std::make_unique<ProcessRuntime>(pid, def);
  }
  std::unique_ptr<ProcessRuntime> rt = std::move(runtime_pool_.back());
  runtime_pool_.pop_back();
  rt->Reset(pid, def);
  return rt;
}

namespace {
/// How many released processes accumulate before the history's event
/// vector is compacted (Compact is O(events), so batching keeps the
/// amortized cost per event constant).
constexpr size_t kHistoryCompactBatch = 1024;
}  // namespace

void TransactionalProcessScheduler::DrainReclaimables() {
  if (!options_.reclaim_terminated || reclaim_queue_.empty()) return;
  for (ProcessId pid : reclaim_queue_) {
    const size_t slot = static_cast<size_t>(pid.value() - 1);
    if (slot >= runtimes_.size() || runtimes_[slot] == nullptr) continue;
    if (slot >= reclaimed_outcome_.size()) {
      reclaimed_outcome_.resize(slot + 1,
                                static_cast<uint8_t>(ProcessOutcome::kActive));
    }
    reclaimed_outcome_[slot] =
        static_cast<uint8_t>(runtimes_[slot]->state.outcome());
    history_.ReleaseProcess(pid);
    runtime_pool_.push_back(std::move(runtimes_[slot]));
  }
  reclaim_queue_.clear();
  // Cascade bookkeeping referencing recycled processes can never be
  // re-evaluated (the compensation gate only looks at live runtimes).
  std::erase_if(cascade_counted_, [&](const std::pair<int64_t, int64_t>& p) {
    return FindRuntime(ProcessId(p.first)) == nullptr ||
           FindRuntime(ProcessId(p.second)) == nullptr;
  });
  if (history_.pending_release_count() >= kHistoryCompactBatch) {
    history_.Compact();
  }
}

void TransactionalProcessScheduler::EnsureServiceRows() {
  if (service_emitters_.size() < spec_.NumServices()) {
    service_emitters_.resize(spec_.NumServices());
    service_footprint_.resize(spec_.NumServices());
  }
}

void TransactionalProcessScheduler::AddToRow(ServiceRows& rows,
                                             ServiceId service,
                                             ProcessId pid) {
  const int index = spec_.RegisterService(service);
  EnsureServiceRows();
  InsertSorted(rows[static_cast<size_t>(index)], pid);
}

void TransactionalProcessScheduler::DropFromRows(ServiceRows& rows,
                                                 const ProcessRuntime& rt) {
  for (const ActivityDecl& decl : rt.def->activities()) {
    if (std::vector<ProcessId>* row = RowOf(rows, spec_, decl.service)) {
      EraseSorted(*row, rt.pid);
    }
  }
}

void TransactionalProcessScheduler::AddFootprint(const ProcessRuntime& rt) {
  for (const ActivityDecl& decl : rt.def->activities()) {
    AddToRow(service_footprint_, decl.service, rt.pid);
  }
}

std::optional<SchedulerView::ProcessView>
TransactionalProcessScheduler::FindProcess(ProcessId pid) const {
  const ProcessRuntime* rt = FindRuntime(pid);
  if (rt == nullptr) return std::nullopt;
  return ViewOf(*rt);
}

std::span<const ProcessId> TransactionalProcessScheduler::EmittersOf(
    ServiceId service) const {
  const std::vector<ProcessId>* row = RowOf(service_emitters_, spec_, service);
  return row == nullptr ? std::span<const ProcessId>() : *row;
}

std::span<const ProcessId> TransactionalProcessScheduler::ActiveOnService(
    ServiceId service) const {
  const std::vector<ProcessId>* row =
      RowOf(service_footprint_, spec_, service);
  return row == nullptr ? std::span<const ProcessId>() : *row;
}

// ---------------------------------------------------------------------------

Result<ProcessId> TransactionalProcessScheduler::Submit(
    const ProcessDef* def, int64_t param,
    std::vector<ProcessDependency> dependencies) {
  CheckThread("Submit");
  DrainReclaimables();
  TPM_RETURN_IF_ERROR(ValidateDef(def));
  if (options_.reclaim_terminated && !dependencies.empty()) {
    // A dependency pins its target runtime (the execution path dereferences
    // it unchecked), which the reclaim protocol cannot guarantee.
    return Status::InvalidArgument(
        "inter-process dependencies are unsupported with reclaim_terminated");
  }
  for (const ProcessDependency& dep : dependencies) {
    const ProcessRuntime* other = FindRuntime(dep.process);
    if (other == nullptr) {
      return Status::NotFound(
          StrCat("dependency on unknown process P", dep.process));
    }
    if (!other->def->HasActivity(dep.activity)) {
      return Status::NotFound(StrCat("dependency on unknown activity a",
                                     dep.activity, " of P", dep.process));
    }
  }
  // Admission: intern the pid as a serialization-graph node, then create
  // its runtime, its history entry and its BEGIN log record. On a history
  // or log failure the node is removed again and nothing else is kept.
  const ProcessId pid(next_pid_++);
  sg_.AddNode(pid);
  std::unique_ptr<ProcessRuntime> runtime = AcquireRuntime(pid, def);
  runtime->param = param;
  runtime->dependencies = std::move(dependencies);
  runtime->submitted_at = clock_->now();
  for (ActivityId root : def->Roots()) runtime->ready.insert(root);
  Status recorded = history_.AddProcess(pid, def);
  if (recorded.ok() && log_ != nullptr) {
    recorded = log_->Append({SchedulerLogRecord::Kind::kProcessBegin, pid,
                             ActivityId(), def->name(), param});
  }
  if (!recorded.ok()) {
    sg_.RemoveNode(pid);
    return recorded;
  }
  EmplaceRuntime(pid, std::move(runtime));
  return pid;
}

Status TransactionalProcessScheduler::ValidateDef(const ProcessDef* def) {
  if (def == nullptr || !def->validated()) {
    return Status::InvalidArgument("process definition missing/unvalidated");
  }
  if (validated_defs_.count(def) > 0) return Status::OK();
  TPM_RETURN_IF_ERROR(ValidateWellFormedFlex(*def));
  for (const ActivityDecl& decl : def->activities()) {
    TPM_RETURN_IF_ERROR(RouteService(decl.service).status());
    if (decl.compensation_service.valid()) {
      TPM_RETURN_IF_ERROR(RouteService(decl.compensation_service).status());
    }
  }
  validated_defs_.insert(def);
  return Status::OK();
}

Result<ProcessId> TransactionalProcessScheduler::SubmitHeld(
    const ProcessDef* def, int64_t param) {
  TPM_ASSIGN_OR_RETURN(ProcessId pid, Submit(def, param));
  FindRuntime(pid)->hold_commit = true;
  ++stats_.spanning_admitted;
  return pid;
}

Status TransactionalProcessScheduler::ResolveHeldCommit(ProcessId pid,
                                                        bool commit) {
  CheckThread("ResolveHeldCommit");
  ProcessRuntime* rt = FindRuntime(pid);
  if (rt == nullptr) {
    return Status::NotFound(StrCat("no such process: P", pid));
  }
  if (!rt->state.IsActive()) {
    // Already terminal (e.g. aborted before voting, or a duplicate
    // decision); the coordinator treats this as already-resolved.
    return Status::NotFound(StrCat("P", pid, " already terminated"));
  }
  if (!rt->hold_commit) {
    return Status::FailedPrecondition(
        StrCat("P", pid, " is not a held sub-process"));
  }
  rt->hold_commit = false;
  rt->commit_held = false;
  if (commit) {
    // The prepared branches release through the normal Lemma-1 machinery
    // (ReleasePreparedIfUnblocked + Def. 11 commit-wait); the flag keeps
    // the process off the deadlock-victim list until it commits.
    rt->decided_commit = true;
    return Status::OK();
  }
  return StartAbort(*rt);
}

Status TransactionalProcessScheduler::AddExternalOrder(ProcessId before,
                                                       ProcessId after) {
  CheckThread("AddExternalOrder");
  if (FindRuntime(after) == nullptr) {
    return Status::NotFound(StrCat("no such process: P", after));
  }
  // A predecessor with no runtime (reclaimed) or already pruned has
  // terminated and left the graph: the order holds. Adding the edge would
  // re-intern it as a node that never terminates, which pins `after` in
  // the graph (and its runtime out of the reclaim pool) for good.
  if (FindRuntime(before) == nullptr || IsPruned(before)) return Status::OK();
  sg_.AddEdge(before, after);
  return Status::OK();
}

bool TransactionalProcessScheduler::InSerializationGraph(ProcessId pid) const {
  CheckThread("InSerializationGraph");
  return sg_.Contains(pid);
}

bool TransactionalProcessScheduler::InAnyEmitterRow(ProcessId pid) const {
  CheckThread("InAnyEmitterRow");
  for (const std::vector<ProcessId>& row : service_emitters_) {
    if (std::binary_search(row.begin(), row.end(), pid)) return true;
  }
  return false;
}

ProcessOutcome TransactionalProcessScheduler::OutcomeOf(ProcessId pid) const {
  CheckThread("OutcomeOf");
  const ProcessRuntime* rt = FindRuntime(pid);
  if (rt != nullptr) return rt->state.outcome();
  if (options_.reclaim_terminated && pid.value() >= 1) {
    const size_t slot = static_cast<size_t>(pid.value() - 1);
    if (slot < reclaimed_outcome_.size()) {
      return static_cast<ProcessOutcome>(reclaimed_outcome_[slot]);
    }
  }
  return ProcessOutcome::kActive;
}

// ---------------------------------------------------------------------------
// Serialization-graph bookkeeping.

void TransactionalProcessScheduler::AddSerializationEdges(
    ProcessId pid, const std::vector<ProcessId>& preds) {
  for (ProcessId p : preds) sg_.AddEdge(p, pid);
}

void TransactionalProcessScheduler::PruneSerializationGraph(
    std::vector<ProcessId> worklist) {
  // A terminated process with no predecessors can never again lie on a
  // cycle (edges are only ever added toward active requesters), so its
  // graph bookkeeping can be dropped — recursively, since its removal may
  // free successors. The runtime itself is kept for outcome queries (until
  // reclaim_terminated recycles it).
  //
  // Worklist instead of a full fixpoint scan: the invariant is that every
  // FinishProcess leaves the graph fully pruned, and between calls edges
  // are only added toward active processes — so the only nodes whose
  // prunability can have changed are the seeds (the process that just
  // terminated, plus the successors its removal exposed). Popping those and
  // cascading through exposed successors therefore removes exactly the set
  // the full scan's fixpoint would.
  while (!worklist.empty()) {
    const ProcessId pid = worklist.back();
    worklist.pop_back();
    const ProcessRuntime* rt = FindRuntime(pid);
    if (rt == nullptr || rt->state.IsActive() || IsPruned(pid) ||
        sg_.HasPredecessors(pid)) {
      continue;
    }
    std::vector<ProcessId> exposed;
    sg_.ForEachSuccessor(pid, [&](ProcessId succ) { exposed.push_back(succ); });
    sg_.RemoveNode(pid);
    DropFromRows(service_emitters_, *rt);
    MarkPruned(pid);
    for (ProcessId succ : exposed) worklist.push_back(succ);
  }
}

// ---------------------------------------------------------------------------
// Execution.

Status TransactionalProcessScheduler::EmitActivity(ProcessRuntime& rt,
                                                   ActivityId act,
                                                   bool inverse) {
  const ActivityDecl& emitted_decl = rt.def->activity(act);
  AddSerializationEdges(
      rt.pid, ConflictingPredecessors(*this, rt.pid, emitted_decl.service));
  if (!inverse && IsNonCompensatable(emitted_decl.kind) &&
      options_.protocol == AdmissionProtocol::kPred &&
      options_.ablation.completion_preorder) {
    // Pre-order this process before every active process whose potential
    // completion conflicts with the frozen activity (§3.5): in any
    // completed schedule the conflicting completion activity follows it.
    for (ProcessId v :
         VirtualCompletionTargets(*this, rt.pid, emitted_decl.service)) {
      sg_.AddEdge(rt.pid, v);
    }
  }
  ActivityInstance inst{rt.pid, act, inverse};
  TPM_RETURN_IF_ERROR(history_.Append(ScheduleEvent::Activity(inst)));
  if (inverse) {
    // The COMP record was already logged write-ahead by the caller (see
    // LogCompensationIntent): the intention is durable before the inverse
    // executes, so recovery never re-applies it.
    TPM_RETURN_IF_ERROR(rt.state.RecordCompensation(act));
    ++stats_.compensations;
  } else {
    TPM_RETURN_IF_ERROR(rt.state.RecordCommit(act));
    ++stats_.activities_committed;
    // Forward activities are logged after the subsystem commit, as facts:
    // losing the record leaves an orphaned forward effect that recovery
    // tolerates, which is benign compared to replaying an inverse twice.
    if (log_ != nullptr) {
      TPM_RETURN_IF_ERROR(
          log_->Append({SchedulerLogRecord::Kind::kActivityCommitted, rt.pid,
                        act, "", 0}));
    }
    rt.active_group[act] = 0;
    RecomputeReadyFrom(rt, act);
  }
  AddToRow(service_emitters_, emitted_decl.service, rt.pid);
  if (!rt.started) rt.started_at = clock_->now();
  rt.started = true;
  for (SchedulerObserver* observer : observers_) {
    observer->OnActivityCommitted(rt.pid, act, inverse);
  }
  OccupyFor(rt, inverse ? emitted_decl.compensation_service
                        : emitted_decl.service);
  if (options_.certify_prefixes) {
    TPM_RETURN_IF_ERROR(CertifyHistory());
  }
  return Status::OK();
}

void TransactionalProcessScheduler::OccupyFor(ProcessRuntime& rt,
                                              ServiceId service) {
  auto duration = options_.service_durations.find(service);
  if (duration != options_.service_durations.end()) {
    rt.busy_until = clock_->now() + duration->second;
  }
}

size_t TransactionalProcessScheduler::LatestOriginalPosition(
    ProcessId pid, ActivityId act) const {
  const auto& events = history_.events();
  for (size_t i = events.size(); i-- > 0;) {
    const ScheduleEvent& e = events[i];
    if (e.type == EventType::kActivity && !e.aborted_invocation &&
        !e.act.inverse && e.act.process == pid && e.act.activity == act) {
      return i;
    }
  }
  return 0;
}

Status TransactionalProcessScheduler::LogCompensationIntent(
    ProcessId pid, ActivityId activity) {
  if (log_ == nullptr) return Status::OK();
  TPM_RETURN_IF_ERROR(log_->Append(
      {SchedulerLogRecord::Kind::kActivityCompensated, pid, activity, "", 0}));
  // In asynchronous mode the append alone is volatile; the intention must
  // be durable before the inverse runs, or a crash between the two could
  // make recovery execute the inverse a second time (double-compensation).
  return log_->Flush();
}

Result<bool> TransactionalProcessScheduler::GateCompensation(
    ProcessRuntime& rt, ActivityId compensated) {
  // Compensating `compensated` invalidates everything a concurrent process
  // derived from it (§2.2): every process that executed a conflicting
  // activity after the original must undo it FIRST — Lemma 2 requires
  // compensations in reverse order of the originals — so such processes
  // are cascade-aborted and this compensation waits for their conflicting
  // effects to disappear. Conflicting effects that can no longer be undone
  // (committed processes, non-compensatable activities) are the Figure 1
  // anomaly: possible only under kUnsafe, counted and skipped over.
  ServiceId service = rt.def->activity(compensated).service;
  const auto& events = history_.events();
  bool wait = false;
  for (size_t i = LatestOriginalPosition(rt.pid, compensated) + 1;
       i < events.size(); ++i) {
    const ScheduleEvent& e = events[i];
    if (e.type != EventType::kActivity || e.aborted_invocation ||
        e.act.inverse) {
      continue;
    }
    if (e.act.process == rt.pid) continue;
    if (!spec_.ServicesConflict(service, history_.ServiceOf(e.act))) continue;

    ProcessRuntime* other_rt = FindRuntime(e.act.process);
    if (other_rt == nullptr) continue;
    ProcessRuntime& other = *other_rt;
    const bool still_effective =
        other.state.IsCommitted(e.act.activity) &&
        !other.state.IsCompensated(e.act.activity);
    if (!still_effective) continue;

    const auto key = std::make_pair(rt.pid.value(),
                                    e.act.process.value());
    if (!other.state.IsActive()) {
      // The dependent already terminated with the stale effect frozen in —
      // unreachable under the PRED protocol (Lemma 1 / commit-order
      // deferral), the §2.2 inconsistency under kUnsafe.
      if (cascade_counted_.insert(key).second) {
        ++stats_.irrecoverable_cascades;
      }
      continue;
    }
    // Will the dependent's abort actually undo the activity? Not for
    // non-compensatables nor for quasi-committed effects (Example 10).
    const std::vector<ActivityId> undone = CompensatedOnAbort(other.state);
    const bool will_undo =
        std::find(undone.begin(), undone.end(), e.act.activity) !=
        undone.end();
    if (other.commit_held || other.decided_commit) {
      // A 2PC participant that voted "prepared" (or already received a
      // commit decision) cannot be unilaterally cascade-aborted — only its
      // coordinator may abort it. Our compensation waits for the decision
      // to land; the external coordinator is guaranteed to deliver one.
      wait = true;
      continue;
    }
    if (!other.completing() ||
        other.on_drain == DrainAction::kActivateGroup) {
      // Abort the dependent process (cascading abort, §2.2). A pending
      // branch switch is superseded by the full abort.
      other.pending.clear();
      other.on_drain = DrainAction::kNone;
      if (cascade_counted_.insert(key).second) {
        ++stats_.cascading_aborts;
        if (!will_undo) ++stats_.irrecoverable_cascades;
      }
      TPM_RETURN_IF_ERROR(StartAbort(other));
    }
    // Lemma 2: our compensation must follow the dependent's.
    if (will_undo) wait = true;
  }
  return !wait;
}

void TransactionalProcessScheduler::RecomputeReadyFrom(ProcessRuntime& rt,
                                                       ActivityId committed) {
  int group = rt.active_group.count(committed) > 0
                  ? rt.active_group[committed]
                  : 0;
  for (ActivityId s : rt.def->SuccessorsInGroup(committed, group)) {
    if (rt.state.IsCommitted(s)) continue;
    bool all_ready = true;
    for (ActivityId p : rt.def->Predecessors(s)) {
      auto pref = rt.def->EdgePreference(p, s);
      int active = rt.active_group.count(p) > 0 ? rt.active_group[p] : 0;
      if (*pref != active) continue;  // edge not on the active branch
      if (!rt.state.IsCommitted(p)) {
        all_ready = false;
        break;
      }
    }
    if (all_ready) rt.ready.insert(s);
  }
}

Result<bool> TransactionalProcessScheduler::ExecuteActivity(ProcessRuntime& rt,
                                                            ActivityId act,
                                                            bool prepare) {
  const ActivityDecl& decl = rt.def->activity(act);
  TPM_ASSIGN_OR_RETURN(Subsystem * subsystem, RouteService(decl.service));
  // Failure-domain gate: never invoke against an open breaker — degrade to
  // a reachable ◁-alternative or park (no Def. 3 retry is burned).
  if (subsystem->breaker_state() == BreakerState::kOpen) {
    return ParkOrDegrade(rt, act, subsystem);
  }
  if (!rt.parked.empty() && rt.parked.erase(act) > 0) {
    ++stats_.resumed_activities;
  }
  ServiceRequest request{rt.pid, act, rt.param};
  auto failed = [&](const Status& failure) {
    return InvocationFailed(failure,
                            [&] { return HandleInvocationAbort(rt, act); });
  };

  // A held sub-process of a spanning process force-prepares EVERY
  // non-compensatable activity, blockers or not: until the cross-shard
  // coordinator decides, the whole spanning process must stay globally
  // abortable, and a locally committed pivot would make it not so.
  // Compensatables commit immediately — they stay undoable via their
  // inverses, exactly the property the local Lemma 1 deferral relies on.
  prepare = prepare || (rt.hold_commit && IsNonCompensatable(decl.kind));
  guard_->OnExecute(rt.pid, decl.service);

  if (prepare) {
    Result<PreparedHandle> prepared =
        subsystem->InvokePrepared(decl.service, request);
    if (!prepared.ok()) return failed(prepared.status());
    rt.ready.erase(act);
    // The activity happened physically; record its serialization edges now
    // even though it only becomes visible in the history at release time.
    AddSerializationEdges(
        rt.pid, ConflictingPredecessors(*this, rt.pid, decl.service));
    rt.prepared.push_back(PreparedBranch{act, subsystem, prepared->tx,
                                         prepared->return_value});
    rt.started = true;
    OccupyFor(rt, decl.service);
    ++stats_.prepared_branches;
    return true;
  }

  Result<InvocationOutcome> outcome = subsystem->Invoke(decl.service, request);
  if (!outcome.ok()) return failed(outcome.status());
  rt.ready.erase(act);
  TPM_RETURN_IF_ERROR(EmitActivity(rt, act, /*inverse=*/false));
  return true;
}

template <typename OnAbort>
Result<bool> TransactionalProcessScheduler::InvocationFailed(
    const Status& failure, OnAbort&& on_abort) {
  if (failure.IsUnavailable()) {
    ++stats_.blocked_by_locks;
    return false;
  }
  if (failure.IsAborted()) {
    TPM_RETURN_IF_ERROR(on_abort());
    return true;
  }
  return failure;
}

Status TransactionalProcessScheduler::RecordFailedInvocation(ProcessId pid,
                                                             ActivityId act) {
  ++stats_.failed_invocations;
  return history_.Append(ScheduleEvent::Activity(
      ActivityInstance{pid, act, false}, /*aborted_invocation=*/true));
}

Status TransactionalProcessScheduler::HandleInvocationAbort(ProcessRuntime& rt,
                                                            ActivityId act) {
  // The local transaction aborted: record the effect-free invocation.
  for (SchedulerObserver* observer : observers_) {
    observer->OnInvocationFailed(rt.pid, act);
  }
  TPM_RETURN_IF_ERROR(RecordFailedInvocation(rt.pid, act));
  const ActivityDecl& decl = rt.def->activity(act);
  if (IsRetriableKind(decl.kind)) {
    // Def. 3: guaranteed to commit after finitely many invocations; keep it
    // ready and re-invoke on a later pass.
    if (++rt.retries[act] > kMaxRetries) {
      return Status::Internal(
          StrCat("retriable activity a", act, " of P", rt.pid, " exceeded ",
                 kMaxRetries,
                 " retries; the subsystem violates Def. 3"));
    }
    return Status::OK();
  }
  // Pivot or compensatable failure (Def. 4): alternative execution.
  return HandleActivityFailure(rt, act);
}

std::optional<TransactionalProcessScheduler::AlternativeChoice>
TransactionalProcessScheduler::FindAlternative(const ProcessRuntime& rt,
                                               ActivityId act,
                                               bool avoid_open_breakers) const {
  // BFS over committed ancestors of `act` for the nearest one with an
  // untried alternative whose active subtree holds no committed
  // non-compensatable activity. With `avoid_open_breakers`, the candidate
  // group (the first such in ◁ order) must also route every activity of
  // its subtree to a subsystem whose breaker is not open.
  std::vector<ActivityId> worklist = {act};
  std::set<ActivityId> seen;
  while (!worklist.empty()) {
    ActivityId cur = worklist.front();
    worklist.erase(worklist.begin());
    if (!seen.insert(cur).second) continue;
    for (ActivityId p : rt.def->Predecessors(cur)) {
      if (!rt.state.IsCommitted(p)) continue;
      auto groups = rt.def->SuccessorGroups(p);
      auto active_it = rt.active_group.find(p);
      int active = active_it != rt.active_group.end() ? active_it->second : 0;
      if (active + 1 < static_cast<int>(groups.size())) {
        bool pinned = false;
        for (ActivityId member : rt.def->Subtree(groups[active])) {
          if (rt.state.IsCommitted(member) &&
              IsNonCompensatable(rt.def->KindOf(member))) {
            pinned = true;
            break;
          }
        }
        if (!pinned) {
          if (!avoid_open_breakers) {
            return AlternativeChoice{p, active + 1};
          }
          for (int g = active + 1; g < static_cast<int>(groups.size()); ++g) {
            if (GroupAvoidsOpenBreakers(rt, groups[g])) {
              return AlternativeChoice{p, g};
            }
          }
          // Every remaining group here routes into an open breaker; keep
          // searching upward.
        }
      }
      worklist.push_back(p);
    }
  }
  return std::nullopt;
}

bool TransactionalProcessScheduler::GroupAvoidsOpenBreakers(
    const ProcessRuntime& rt, const std::vector<ActivityId>& group) const {
  for (ActivityId member : rt.def->Subtree(group)) {
    Result<Subsystem*> subsystem =
        RouteService(rt.def->activity(member).service);
    if (subsystem.ok() &&
        (*subsystem)->breaker_state() == BreakerState::kOpen) {
      return false;
    }
  }
  return true;
}

Status TransactionalProcessScheduler::HandleActivityFailure(ProcessRuntime& rt,
                                                            ActivityId act) {
  rt.ready.erase(act);
  std::optional<AlternativeChoice> alt =
      FindAlternative(rt, act, /*avoid_open_breakers=*/false);
  if (!alt.has_value()) {
    // No alternative: abort the process (backward recovery — the
    // well-formed flex structure guarantees everything committed so far is
    // compensatable, or forward recovery if a pivot already committed).
    return StartAbort(rt);
  }
  ++stats_.alternatives_taken;
  for (SchedulerObserver* observer : observers_) {
    observer->OnAlternativeTaken(rt.pid, alt->branch_point, alt->group);
  }
  return CompensateSubtree(rt, alt->branch_point, alt->group);
}

Result<bool> TransactionalProcessScheduler::ParkOrDegrade(
    ProcessRuntime& rt, ActivityId act, Subsystem* subsystem) {
  // Forward recovery first (§3.1): when a ◁-alternative avoids every open
  // breaker, switch proactively instead of waiting out the outage — the
  // preference order exists precisely to rank degraded-but-available paths.
  std::optional<AlternativeChoice> alt =
      FindAlternative(rt, act, /*avoid_open_breakers=*/true);
  if (alt.has_value()) {
    ++stats_.degraded_switches;
    for (SchedulerObserver* observer : observers_) {
      observer->OnDegradedBranch(rt.pid, alt->branch_point, alt->group,
                                 subsystem->id());
    }
    rt.parked.erase(act);
    rt.ready.erase(act);
    TPM_RETURN_IF_ERROR(CompensateSubtree(rt, alt->branch_point, alt->group));
    return true;
  }
  // No reachable alternative: park. The activity stays in `ready` but is
  // not invoked — no Def. 3 retry burns against the open breaker — and
  // resumes once the breaker half-opens after its cooldown.
  auto [parked_it, inserted] = rt.parked.emplace(act, clock_->now());
  if (inserted) ++stats_.parked_activities;
  parked_this_pass_ = true;
  if (options_.park_timeout_ticks > 0 &&
      clock_->now() - parked_it->second >= options_.park_timeout_ticks) {
    // Waited long enough: fail the activity through the normal ladder
    // (alternative search, else abort) so termination stays guaranteed
    // even when the outage is never repaired.
    rt.parked.erase(parked_it);
    TPM_RETURN_IF_ERROR(RecordFailedInvocation(rt.pid, act));
    TPM_RETURN_IF_ERROR(HandleActivityFailure(rt, act));
    return true;
  }
  return false;
}

Status TransactionalProcessScheduler::CompensateSubtree(ProcessRuntime& rt,
                                                        ActivityId branch_point,
                                                        int next_group) {
  // Queue compensations of committed descendants of the branch point in
  // reverse commit order; activate the alternative once they drain.
  const std::vector<ActivityId> committed = rt.state.EffectiveCommitted();
  for (auto it = committed.rbegin(); it != committed.rend(); ++it) {
    if (rt.def->Precedes(branch_point, *it)) {
      rt.pending.push_back(CompletionStep{*it, /*inverse=*/true});
    }
  }
  // Drop ready activities of the abandoned branch (and their parked
  // bookkeeping — a parked activity abandoned with its branch never
  // resumes).
  FlatSet<ActivityId> still_ready;
  for (ActivityId r : rt.ready) {
    if (!rt.def->Precedes(branch_point, r)) still_ready.insert(r);
  }
  rt.ready = std::move(still_ready);
  for (auto it = rt.parked.begin(); it != rt.parked.end();) {
    if (rt.def->Precedes(branch_point, it->first)) {
      it = rt.parked.erase(it);
    } else {
      ++it;
    }
  }
  rt.on_drain = DrainAction::kActivateGroup;
  rt.drain_branch_point = branch_point;
  rt.drain_group = next_group;
  return Status::OK();
}

Status TransactionalProcessScheduler::StartAbort(ProcessRuntime& rt) {
  if (rt.release_in_doubt) {
    // A commit decision for the prepared branches is already logged; the
    // process cannot abort past it. Try to resolve first — if some
    // participant is still unreachable the abort is postponed (the caller's
    // gate re-evaluates every pass) rather than contradicting the decision.
    TPM_ASSIGN_OR_RETURN(bool resolved, ResolveInDoubt(rt));
    if (!resolved) return Status::OK();
  }
  ++aborts_started_;  // state change: counts as progress for Step()
  for (SchedulerObserver* observer : observers_) {
    observer->OnAbortStarted(rt.pid);
  }
  // Prepared-but-unreleased branches never became visible; roll them back.
  if (!rt.prepared.empty()) {
    TPM_RETURN_IF_ERROR(coordinator_.AbortAll(CommitBranchesOf(rt)));
    rt.prepared.clear();
  }
  TPM_ASSIGN_OR_RETURN(Completion completion, ComputeCompletion(rt.state));
  rt.pending = completion.steps;
  rt.ready.clear();
  rt.parked.clear();
  rt.on_drain = DrainAction::kAbortProcess;
  return Status::OK();
}

Result<bool> TransactionalProcessScheduler::ExecuteCompletionStep(
    ProcessRuntime& rt) {
  if (rt.pending.empty()) {
    // Drained: apply the action.
    DrainAction action = rt.on_drain;
    rt.on_drain = DrainAction::kNone;
    if (action == DrainAction::kActivateGroup) {
      rt.active_group[rt.drain_branch_point] = rt.drain_group;
      RecomputeReadyFrom(rt, rt.drain_branch_point);
    } else if (action == DrainAction::kAbortProcess) {
      TPM_RETURN_IF_ERROR(FinishProcess(rt, /*committed=*/false));
    }
    return true;
  }

  const CompletionStep step = rt.pending.front();
  const ActivityDecl& decl = rt.def->activity(step.activity);

  // Deadlock resolution may force one mutually-blocked recovery step
  // through (liveness of completions over formal reducibility).
  bool forced = false;
  auto must_wait = [&]() {
    if (forced) return false;
    if (!force_next_completion_ || force_completion_target_ != rt.pid) {
      return true;
    }
    force_next_completion_ = false;
    forced = true;
    ++stats_.forced_executions;
    return false;
  };

  if (step.inverse && options_.ablation.compensation_gate) {
    // Lemma 2 gate: dependents must undo their conflicting work first.
    TPM_ASSIGN_OR_RETURN(bool ready, GateCompensation(rt, step.activity));
    if (!ready && must_wait()) return false;
  }
  if (!step.inverse) {
    // A forward completion step freezes its effects; emitting it must not
    // close a serialization cycle (including the virtual completion
    // pre-orders). Wait — conflicting parties terminate or abort, and
    // mutual waits are broken by deadlock resolution.
    if (options_.protocol == AdmissionProtocol::kPred &&
        options_.ablation.completion_preorder) {
      const bool cycle =
          sg_.WouldCycle(rt.pid, ConflictingPredecessors(*this, rt.pid,
                                                         decl.service)) ||
          std::ranges::any_of(
              VirtualCompletionTargets(*this, rt.pid, decl.service),
              [&](ProcessId v) { return sg_.Reaches(v, rt.pid); });
      if (cycle) {
        if (ActiveProcessReachableFrom(*this, rt.pid)) {
          if (must_wait()) return false;
        } else {
          // Permanent cycle: the completion must still terminate
          // (guaranteed termination); proceed and account for it.
          ++stats_.forced_executions;
        }
      }
    }
    // Lemma 3, generalized: a forward (retriable) completion step must
    // wait while any active process still holds a conflicting effect that
    // an abort would compensate — running first would wedge that future
    // compensation behind a frozen retriable (the irreducible cycle of
    // Lemma 3's proof). The other process either commits (conflict order
    // stays acyclic) or aborts, in which case its compensation correctly
    // precedes this step; mutual waits are broken by deadlock resolution.
    // active_pids_ is ascending, the order of the runtime slots.
    for (ProcessId other_pid : active_pids_) {
      const ProcessRuntime* other = FindRuntime(other_pid);
      if (other == nullptr || other->pid == rt.pid ||
          !other->state.IsActive()) {
        continue;
      }
      for (ActivityId undone : CompensatedOnAbort(other->state)) {
        if (spec_.ServicesConflict(decl.service,
                                   other->def->activity(undone).service) &&
            must_wait()) {
          return false;
        }
      }
    }
  }

  ServiceId service =
      step.inverse ? decl.compensation_service : decl.service;
  TPM_ASSIGN_OR_RETURN(Subsystem * subsystem, RouteService(service));
  ServiceRequest request{rt.pid, step.activity, rt.param};
  if (step.inverse && !rt.pending.front().logged) {
    TPM_RETURN_IF_ERROR(LogCompensationIntent(rt.pid, step.activity));
    rt.pending.front().logged = true;
  }
  Result<InvocationOutcome> outcome = subsystem->Invoke(service, request);
  if (!outcome.ok()) {
    // Compensating activities are retriable by definition (§3.1), and
    // forward completion steps are retriable by the well-formed flex
    // structure: an aborted one is re-invoked on a later pass.
    return InvocationFailed(outcome.status(), [&] {
      ++stats_.failed_invocations;
      if (++rt.retries[step.activity] > kMaxRetries) {
        return Status::Internal(StrCat("completion step for a", step.activity,
                                       " of P", rt.pid, " exceeded retry cap"));
      }
      return Status::OK();
    });
  }
  rt.pending.erase(rt.pending.begin());
  TPM_RETURN_IF_ERROR(EmitActivity(rt, step.activity, step.inverse));
  return true;
}

Status TransactionalProcessScheduler::ReleasePreparedIfUnblocked(
    ProcessRuntime& rt) {
  if (rt.prepared.empty()) return Status::OK();
  if (rt.hold_commit) {
    // Held sub-process of a spanning process: its prepared branches stay
    // prepared — blockers gone or not — until the cross-shard coordinator
    // decides (ResolveHeldCommit clears the flag).
    return Status::OK();
  }
  if (rt.release_in_doubt) {
    // The commit decision is logged but some participant was unreachable
    // during phase two. Re-drive it; while still unreachable the process
    // keeps waiting (a prepared-but-unreachable branch resolves when the
    // participant heals — it never wedges, and never aborts against the
    // logged decision).
    return ResolveInDoubt(rt).status();
  }
  // Lemma 1: the deferred commits are released only once no conflicting
  // predecessor process is active any more — then all branches commit
  // atomically via 2PC.
  bool blocked = false;
  sg_.ForEachPredecessor(rt.pid, [&](ProcessId p) {
    if (blocked) return;
    const ProcessRuntime* other = FindRuntime(p);
    if (other == nullptr || !other->state.IsActive()) return;
    if (options_.quasi_commit_optimization &&
        QuasiCommitAdmissible(*this, ViewOf(*other), ViewOf(rt))) {
      return;
    }
    blocked = true;
  });
  if (blocked) return Status::OK();
  Status committed = coordinator_.CommitAll(CommitBranchesOf(rt));
  if (committed.IsUnavailable()) {
    rt.release_in_doubt = true;
    return Status::OK();
  }
  TPM_RETURN_IF_ERROR(committed);
  return EmitReleasedBranches(rt);
}

std::vector<CommitBranch> TransactionalProcessScheduler::CommitBranchesOf(
    const ProcessRuntime& rt) {
  std::vector<CommitBranch> branches;
  for (const PreparedBranch& b : rt.prepared) {
    branches.push_back(CommitBranch{b.subsystem, b.tx});
  }
  return branches;
}

Status TransactionalProcessScheduler::EmitReleasedBranches(ProcessRuntime& rt) {
  std::vector<PreparedBranch> released = std::move(rt.prepared);
  rt.prepared.clear();
  for (const PreparedBranch& b : released) {
    TPM_RETURN_IF_ERROR(EmitActivity(rt, b.activity, /*inverse=*/false));
  }
  return Status::OK();
}

Result<bool> TransactionalProcessScheduler::ResolveInDoubt(ProcessRuntime& rt) {
  Status resolved = coordinator_.RecoverInDoubt();
  if (resolved.IsUnavailable()) return false;
  TPM_RETURN_IF_ERROR(resolved);
  rt.release_in_doubt = false;
  TPM_RETURN_IF_ERROR(EmitReleasedBranches(rt));
  return true;
}

// True iff the aborted process left no trace: everything it committed was
// compensated, and no conflicting activity of another process was emitted
// between any original and its compensation — then all its pairs cancel
// under the compensation rule and the process contributes nothing to any
// future completed schedule.
bool TransactionalProcessScheduler::AbortedProcessLeavesNoTrace(
    const ProcessRuntime& rt) const {
  if (!rt.state.EffectiveCommitted().empty()) return false;
  const auto& events = history_.events();
  // Open compensation spans per activity of rt.pid.
  std::map<int64_t, size_t> open_span;
  for (size_t i = 0; i < events.size(); ++i) {
    const ScheduleEvent& e = events[i];
    if (e.type != EventType::kActivity || e.aborted_invocation) continue;
    if (e.act.process != rt.pid) continue;
    if (!e.act.inverse) {
      open_span[e.act.activity.value()] = i;
      continue;
    }
    auto span = open_span.find(e.act.activity.value());
    if (span == open_span.end()) return false;  // inconsistent history
    ServiceId service = rt.def->activity(e.act.activity).service;
    for (size_t k = span->second + 1; k < i; ++k) {
      const ScheduleEvent& mid = events[k];
      if (mid.type != EventType::kActivity || mid.aborted_invocation) {
        continue;
      }
      if (mid.act.process == rt.pid) continue;
      if (spec_.ServicesConflict(service, history_.ServiceOf(mid.act))) {
        return false;
      }
    }
    open_span.erase(span);
  }
  return open_span.empty();
}

Status TransactionalProcessScheduler::FinishProcess(ProcessRuntime& rt,
                                                    bool committed) {
  TPM_RETURN_IF_ERROR(history_.Append(committed
                                          ? ScheduleEvent::Commit(rt.pid)
                                          : ScheduleEvent::Abort(rt.pid)));
  if (committed) {
    rt.state.RecordCommitProcess();
    ++stats_.processes_committed;
  } else {
    rt.state.RecordAbortProcess();
    ++stats_.processes_aborted;
  }
  // Immediately after the outcome flip, so the active index stays
  // consistent with the state even if the WAL append below fails.
  DeactivatePid(rt);
  if (log_ != nullptr) {
    TPM_RETURN_IF_ERROR(log_->Append(
        {committed ? SchedulerLogRecord::Kind::kProcessCommitted
                   : SchedulerLogRecord::Kind::kProcessAborted,
         rt.pid, ActivityId(), "", 0}));
  }
  if (!options_.reclaim_terminated) {
    // Unbounded growth — deliberately skipped in bounded-memory mode
    // (observers / stats() carry the per-process signal there).
    latencies_.push_back(ProcessLatency{rt.pid, rt.submitted_at,
                                        rt.started_at, clock_->now(),
                                        rt.state.outcome()});
  }
  for (SchedulerObserver* observer : observers_) {
    observer->OnProcessTerminated(rt.pid, rt.state.outcome());
  }
  guard_->OnProcessTerminated(rt.pid);
  // Process-resolution hook: subsystems with per-process bookkeeping (e.g.
  // escrow pending credit) release it now that the process is terminal.
  for (Subsystem* subsystem : subsystems_) {
    subsystem->OnProcessResolved(rt.pid, committed);
  }
  std::vector<ProcessId> prune_seeds;
  if (!committed && AbortedProcessLeavesNoTrace(rt)) {
    // The process reduced away entirely: release its conflict footprint so
    // it no longer constrains (or cycles with) future activities. The
    // successors the removal exposes seed the pruning worklist.
    sg_.ForEachSuccessor(rt.pid,
                         [&](ProcessId succ) { prune_seeds.push_back(succ); });
    sg_.RemoveNode(rt.pid);
    DropFromRows(service_emitters_, rt);
    MarkPruned(rt.pid);
  } else {
    prune_seeds.push_back(rt.pid);
  }
  PruneSerializationGraph(std::move(prune_seeds));
  return Status::OK();
}

Result<bool> TransactionalProcessScheduler::TryExecuteProcess(
    ProcessRuntime& rt) {
  if (rt.completing()) {
    return ExecuteCompletionStep(rt);
  }
  // Congestion control: unstarted processes wait for a concurrency slot.
  if (!rt.started && options_.max_concurrent_processes > 0) {
    const auto started_active =
        std::count_if(active_pids_.begin(), active_pids_.end(), [&](auto pid) {
          const ProcessRuntime* other = FindRuntime(pid);
          return other != nullptr && other->state.IsActive() && other->started;
        });
    if (started_active >= options_.max_concurrent_processes) {
      return false;  // queued
    }
  }
  // Inter-process start dependencies: stay dormant until every dependency
  // activity committed; abort cleanly once one becomes unsatisfiable.
  if (!rt.dependencies.empty()) {
    std::vector<ProcessDependency> unmet;
    for (const ProcessDependency& dep : rt.dependencies) {
      const ProcessRuntime& other = *FindRuntime(dep.process);
      const bool committed = other.state.IsCommitted(dep.activity) &&
                             !other.state.IsCompensated(dep.activity);
      if (committed) continue;
      const bool hopeless = !other.state.IsActive() ||
                            other.state.IsCompensated(dep.activity);
      if (hopeless) {
        rt.dependencies.clear();
        TPM_RETURN_IF_ERROR(StartAbort(rt));
        return true;
      }
      unmet.push_back(dep);
    }
    rt.dependencies = std::move(unmet);
    if (!rt.dependencies.empty()) return false;  // still dormant
  }
  if (rt.ready.empty()) {
    if (rt.hold_commit) {
      // Held sub-process of a spanning process: instead of committing
      // locally, cast (at most once) a durable "prepared" vote and wait
      // for the cross-shard coordinator's decision.
      return MaybeVoteHeldCommit(rt);
    }
    if (!rt.prepared.empty()) {
      return false;  // waiting for prepared release
    }
    if (WaitsForCommitOrder(rt)) return false;
    TPM_RETURN_IF_ERROR(FinishProcess(rt, /*committed=*/true));
    return true;
  }
  bool deferred_any = false;
  // Snapshot: execution mutates rt.ready.
  const std::vector<ActivityId> candidates(rt.ready.begin(), rt.ready.end());
  for (ActivityId act : candidates) {
    const AdmissionDecision decision = guard_->Admit(ViewOf(rt), act);
    switch (decision) {
      case AdmissionDecision::kAdmit:
      case AdmissionDecision::kPrepare: {
        TPM_ASSIGN_OR_RETURN(
            bool progress,
            ExecuteActivity(rt, act, decision == AdmissionDecision::kPrepare));
        if (progress) return true;
        break;  // blocked by subsystem locks; try a sibling
      }
      case AdmissionDecision::kDefer:
        deferred_any = true;
        break;
      case AdmissionDecision::kFail:
        // Admitting the activity would create an unresolvable conflict
        // cycle: treat as a failed invocation, triggering the alternative
        // execution path (or abort).
        TPM_RETURN_IF_ERROR(RecordFailedInvocation(rt.pid, act));
        TPM_RETURN_IF_ERROR(HandleActivityFailure(rt, act));
        return true;
    }
  }
  if (deferred_any) ++stats_.deferrals;
  return false;
}

std::vector<SchedulerLogRecord> TransactionalProcessScheduler::VoteRecords(
    const ProcessRuntime& rt) {
  std::vector<SchedulerLogRecord> records;
  for (const PreparedBranch& b : rt.prepared) {
    records.push_back({SchedulerLogRecord::Kind::kCommitHeld, rt.pid,
                       b.activity,
                       StrCat(b.subsystem->id().value(), ":", b.tx.value()),
                       b.return_value});
  }
  records.push_back(
      {SchedulerLogRecord::Kind::kCommitHeld, rt.pid, ActivityId(), "", 0});
  return records;
}

bool TransactionalProcessScheduler::WaitsForCommitOrder(
    const ProcessRuntime& rt) {
  // A process must not commit before an active process it conflicts with
  // (edge P_i -> P_j requires C_i << C_j). kUnsafe ignores this,
  // reproducing the classical behaviour.
  if (options_.protocol == AdmissionProtocol::kUnsafe) return false;
  bool wait = false;
  sg_.ForEachPredecessor(rt.pid, [&](ProcessId p) {
    if (wait) return;
    const ProcessRuntime* other = FindRuntime(p);
    if (other != nullptr && other->state.IsActive()) wait = true;
  });
  if (wait) ++stats_.commit_waits;
  return wait;
}

Result<bool> TransactionalProcessScheduler::MaybeVoteHeldCommit(
    ProcessRuntime& rt) {
  if (rt.commit_held) return false;  // voted; waiting for the decision
  // Def. 11 commit-wait applied to the vote: "prepared" fixes this
  // sub-process's position in the global commit order, so the vote must
  // not be cast while a conflicting predecessor is still active — this is
  // what makes the composite (inter-shard weak + intra-shard strong) order
  // consistent: a sub ordered after another on some shard cannot vote, and
  // hence the spanning process cannot commit, before that predecessor
  // terminates.
  if (WaitsForCommitOrder(rt)) return false;
  // Durable vote: one HELD record per prepared branch (its subsystem:tx
  // handle, so recovery can finish phase two), then the vote marker. Only
  // once the marker is durable may the coordinator learn of the vote — a
  // crash before the flush is presumed abort.
  if (log_ != nullptr) {
    for (const SchedulerLogRecord& record : VoteRecords(rt)) {
      TPM_RETURN_IF_ERROR(log_->Append(record));
    }
    TPM_RETURN_IF_ERROR(log_->Flush());
  }
  rt.commit_held = true;
  history_.MarkVote(rt.pid);
  ++stats_.cross_shard_prepares;
  for (SchedulerObserver* observer : observers_) {
    observer->OnCommitHeld(rt.pid);
  }
  return true;
}

namespace {
/// How many consecutive no-progress passes the scheduler tolerates while a
/// held sub-process is waiting on its coordinator before treating the stall
/// as a local problem and victimizing a (non-held) process anyway. Normal
/// cross-shard decision latency is a handful of passes; the patience only
/// runs out when the stall is really local (e.g. a ◁-tail sub wedged on its
/// own trunk's prepared locks) or the coordinator died.
constexpr int64_t kHeldStallPatience = 64;
}  // namespace

Status TransactionalProcessScheduler::ResolveDeadlock() {
  // A held sub-process that voted (or was decided) is waiting on an
  // external coordinator, not on local state: such a pass is external
  // waiting, not a deadlock. Give the decision bounded (deterministic,
  // pass-counted) time to arrive before falling through to victimization.
  const bool external_wait =
      std::any_of(active_pids_.begin(), active_pids_.end(), [&](auto pid) {
        const ProcessRuntime* rt = FindRuntime(pid);
        return rt != nullptr && rt->state.IsActive() &&
               (rt->commit_held || rt->decided_commit);
      });
  if (external_wait && ++held_stall_passes_ < kHeldStallPatience) {
    return Status::OK();
  }
  // Pick a victim among active, non-completing processes: prefer processes
  // still in B-REC (cheap backward recovery), then the one with the least
  // committed work to undo, then the youngest.
  ProcessRuntime* victim = nullptr;
  std::tuple<bool, int64_t, ProcessId> victim_rank;
  for (ProcessId pid : active_pids_) {
    ProcessRuntime* rt = FindRuntime(pid);
    if (rt == nullptr) continue;
    if (!rt->state.IsActive() || rt->completing()) continue;
    // A voted or commit-decided 2PC participant cannot unilaterally abort;
    // only its coordinator may. (A held sub-process that has NOT voted yet
    // stays victimizable — that is how distributed lock cycles resolve:
    // the local abort surfaces to the agent, which aborts globally.)
    if (rt->commit_held || rt->decided_commit) continue;
    const std::tuple<bool, int64_t, ProcessId> rank{
        rt->state.recovery_state() == RecoveryState::kBackwardRecoverable,
        -static_cast<int64_t>(rt->state.EffectiveCommitted().size()), rt->pid};
    if (victim == nullptr || rank > victim_rank) {
      victim = rt;
      victim_rank = rank;
    }
  }
  if (victim == nullptr) {
    // Every active process is already completing and this pass made no
    // progress. Completions must terminate (guaranteed termination), so
    // one blocked step is forced through on the next pass — but which one
    // matters: Lemma 2 wants compensations in reverse order of their
    // originals, so the force targets the pending inverse whose original
    // sits latest in the history. That step is either gate-blocked by a
    // peer (forcing it there breaks the tie where reduction loses least)
    // or merely waiting out a repairable subsystem outage, in which case
    // the forced attempt is a no-op retry and the advancing clock
    // eventually clears the outage — forcing any OTHER process instead
    // would cross compensation pairs and spoil reducibility for no
    // liveness gain.
    ProcessRuntime* target = nullptr;
    bool target_is_inverse = false;
    size_t latest_original = 0;
    for (ProcessId pid : active_pids_) {
      ProcessRuntime* rt = FindRuntime(pid);
      if (rt == nullptr || !rt->state.IsActive() || !rt->completing()) {
        continue;
      }
      if (rt->pending.empty() || !rt->pending.front().inverse) {
        // Drain or forward step: eligible, but any inverse takes priority.
        if (target == nullptr) target = rt;
        continue;
      }
      const size_t pos =
          LatestOriginalPosition(rt->pid, rt->pending.front().activity);
      if (!target_is_inverse || pos > latest_original) {
        target = rt;
        target_is_inverse = true;
        latest_original = pos;
      }
    }
    if (target != nullptr) {
      force_next_completion_ = true;
      force_completion_target_ = target->pid;
      return Status::OK();
    }
    if (external_wait) {
      // Everything left is (or waits behind) a held sub-process: progress
      // will come from the coordinator's decision, not from local action.
      return Status::OK();
    }
    std::string detail;
    for (ProcessId pid : active_pids_) {
      const ProcessRuntime* rt = FindRuntime(pid);
      if (rt == nullptr || !rt->state.IsActive()) continue;
      detail += StrCat(" P", rt->pid, "(completing=", rt->completing() ? 1 : 0,
                       ",pending=", rt->pending.size(),
                       ",ready=", rt->ready.size(),
                       ",prepared=", rt->prepared.size(),
                       ",drain=", static_cast<int>(rt->on_drain));
      for (const CompletionStep& s : rt->pending) {
        detail += StrCat(" a", s.activity, s.inverse ? "^-1" : "");
      }
      detail += ")";
    }
    return Status::Internal(
        StrCat("scheduler stalled with no abortable process:", detail));
  }
  ++stats_.deadlock_victims;
  return StartAbort(*victim);
}

void TransactionalProcessScheduler::PollSubsystemHealth() {
  if (breaker_seen_.size() < subsystems_.size()) {
    breaker_seen_.resize(subsystems_.size(), BreakerState::kClosed);
  }
  int64_t deadline_failures = 0;
  int64_t breaker_trips = 0;
  for (size_t i = 0; i < subsystems_.size(); ++i) {
    const BreakerState now = subsystems_[i]->breaker_state();
    if (now != breaker_seen_[i]) {
      for (SchedulerObserver* observer : observers_) {
        observer->OnBreakerStateChange(subsystems_[i]->id(), breaker_seen_[i],
                                       now);
      }
      breaker_seen_[i] = now;
    }
    const SubsystemHealthCounters counters =
        subsystems_[i]->health_counters();
    deadline_failures += counters.deadline_failures;
    breaker_trips += counters.breaker_trips;
  }
  stats_.deadline_failures = deadline_failures;
  stats_.breaker_trips = breaker_trips;
}

Result<bool> TransactionalProcessScheduler::Step() {
  CheckThread("Step");
  DrainReclaimables();
  ++stats_.steps;
  clock_->Advance(1);
  stats_.virtual_time = clock_->now();
  PollSubsystemHealth();
  bool progress = false;
  parked_this_pass_ = false;
  const int64_t aborts_before = aborts_started_;

  // Snapshot the active index: execution terminates processes (mutating
  // active_pids_) mid-loop. Visit order — ascending pid — is unchanged.
  std::vector<ProcessId> active = active_pids_;

  // Release deferred commits whose blockers are gone (Lemma 1).
  for (ProcessId pid : active) {
    ProcessRuntime* rt = FindRuntime(pid);
    if (rt == nullptr || !rt->state.IsActive() || rt->prepared.empty()) {
      continue;
    }
    size_t before = rt->prepared.size();
    TPM_RETURN_IF_ERROR(ReleasePreparedIfUnblocked(*rt));
    if (rt->prepared.size() != before) progress = true;
  }

  // One execution attempt per active process, in pid order.
  bool any_busy = false;
  for (ProcessId pid : active) {
    ProcessRuntime* rt = FindRuntime(pid);
    if (rt == nullptr || !rt->state.IsActive()) continue;
    if (rt->release_in_doubt) {
      // Waiting for in-doubt 2PC branches to resolve: the commit decision
      // is logged — the process neither executes nor aborts meanwhile.
      any_busy = true;
      continue;
    }
    if (rt->busy_until > clock_->now()) {
      any_busy = true;  // a long-running activity is in flight
      continue;
    }
    TPM_ASSIGN_OR_RETURN(bool p, TryExecuteProcess(*rt));
    progress = progress || p;
  }

  if (active_pids_.empty()) return false;
  // Cascade aborts initiated inside admission/compensation gates changed
  // scheduler state even if no activity executed this pass; time passing
  // for a long-running activity is progress too, and so is parking — a
  // parked activity waits out a breaker cooldown measured on the clock,
  // which advances every pass.
  progress = progress || aborts_started_ != aborts_before || any_busy ||
             parked_this_pass_;
  if (!progress) {
    TPM_RETURN_IF_ERROR(ResolveDeadlock());
  } else {
    // Progress dissolved the stall; drop an unconsumed force so it cannot
    // bypass a gate later under changed circumstances. If the stall
    // returns, deadlock resolution recomputes a fresh target.
    force_next_completion_ = false;
    held_stall_passes_ = 0;
  }
  return true;
}

Status TransactionalProcessScheduler::Run(int64_t max_steps) {
  CheckThread("Run");
  for (int64_t i = 0; i < max_steps; ++i) {
    TPM_ASSIGN_OR_RETURN(bool more, Step());
    if (!more) return Status::OK();
  }
  return Status::Internal("Run() exceeded max_steps");
}

Status TransactionalProcessScheduler::CertifyHistory() {
  TPM_ASSIGN_OR_RETURN(bool pred, IsPRED(history_, spec_));
  if (!pred) {
    ++stats_.certified_violations;
    if (options_.protocol == AdmissionProtocol::kPred ||
        options_.protocol == AdmissionProtocol::kSerial ||
        options_.protocol == AdmissionProtocol::kTwoPhaseLocking) {
      return Status::Internal(
          StrCat("emitted history is not PRED under a safe protocol: ",
                 history_.ToString()));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Crash and recovery.

Status TransactionalProcessScheduler::Checkpoint() {
  CheckThread("Checkpoint");
  if (log_ == nullptr) {
    return Status::FailedPrecondition("checkpoint requires a recovery log");
  }
  // Global commit order from the emitted history. The compacted log must
  // preserve it across processes — recovery sorts the group abort's
  // compensations by log position (Lemma 2: reverse commit order), and the
  // replayed history must stay prefix-reducible; records grouped by
  // process would silently invert inter-process commit order.
  std::map<std::pair<int64_t, int64_t>, size_t> commit_pos;
  const auto& events = history_.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const ScheduleEvent& e = events[i];
    if (e.type == EventType::kActivity && !e.aborted_invocation &&
        !e.act.inverse) {
      commit_pos[{e.act.process.value(), e.act.activity.value()}] = i;
    }
  }
  auto pos_of = [&](ProcessId pid, ActivityId act) {
    auto it = commit_pos.find({pid.value(), act.value()});
    return it == commit_pos.end() ? size_t{0} : it->second;
  };

  std::vector<SchedulerLogRecord> compact;
  struct Positioned {
    size_t pos;
    SchedulerLogRecord record;
  };
  std::vector<Positioned> acts;
  std::vector<Positioned> comps;
  for (const auto& rt : runtimes_) {
    if (rt == nullptr || !rt->state.IsActive()) {
      continue;  // effects are durable; drop
    }
    compact.push_back({SchedulerLogRecord::Kind::kProcessBegin, rt->pid,
                       ActivityId(), rt->def->name(), rt->param});
    // The effective committed activities reconstruct the state recovery
    // needs (already-compensated work is equivalent to never-executed work
    // for the completion computation).
    for (ActivityId act : rt->state.EffectiveCommitted()) {
      acts.push_back({pos_of(rt->pid, act),
                      {SchedulerLogRecord::Kind::kActivityCommitted, rt->pid,
                       act, "", 0}});
    }
    // Write-ahead COMP intentions already durable but not yet executed must
    // survive the compaction: dropping one would let the compensation run
    // unlogged afterwards (its step is marked `logged`), and a later crash
    // would re-apply the inverse.
    for (const CompletionStep& step : rt->pending) {
      if (step.inverse && step.logged) {
        comps.push_back({pos_of(rt->pid, step.activity),
                         {SchedulerLogRecord::Kind::kActivityCompensated,
                          rt->pid, step.activity, "", 0}});
      }
    }
    // A held sub-process that already voted keeps its vote across
    // compaction: dropping the marker (or the subsystem:tx branch handles)
    // would make a later recovery presume abort against a commit decision
    // the coordinator may already have logged.
    if ((rt->commit_held || rt->decided_commit) && !rt->prepared.empty()) {
      for (SchedulerLogRecord& record : VoteRecords(*rt)) {
        compact.push_back(std::move(record));
      }
    }
  }
  std::stable_sort(acts.begin(), acts.end(),
                   [](const Positioned& a, const Positioned& b) {
                     return a.pos < b.pos;
                   });
  // Intentions in reverse order of their originals' commits (Lemma 2).
  std::stable_sort(comps.begin(), comps.end(),
                   [](const Positioned& a, const Positioned& b) {
                     return a.pos > b.pos;
                   });
  for (const Positioned& p : acts) compact.push_back(p.record);
  for (const Positioned& p : comps) compact.push_back(p.record);
  return log_->ReplaceAll(compact);
}

void TransactionalProcessScheduler::Crash() {
  CheckThread("Crash");
  runtimes_.clear();
  active_pids_.clear();
  pruned_.clear();
  reclaim_queue_.clear();
  reclaimed_outcome_.clear();
  // runtime_pool_ survives: pooled objects carry no process state.
  cascade_counted_.clear();
  force_next_completion_ = false;
  parked_this_pass_ = false;
  held_stall_passes_ = 0;
  // A private clock restarts with the scheduler; a shared clock is global
  // simulation time and keeps running across the crash.
  if (clock_ == &owned_clock_) owned_clock_.Reset();
  latencies_.clear();
  validated_defs_.clear();
  history_ = ProcessSchedule();
  sg_.Clear();
  for (std::vector<ProcessId>& row : service_emitters_) row.clear();
  for (std::vector<ProcessId>& row : service_footprint_) row.clear();
  guard_->Reset();
}

Status TransactionalProcessScheduler::Recover(
    const std::map<std::string, const ProcessDef*>& defs_by_name,
    const RecoverDirectives* directives) {
  CheckThread("Recover");
  if (log_ == nullptr) {
    return Status::FailedPrecondition("recovery requires a recovery log");
  }
  Crash();
  TPM_ASSIGN_OR_RETURN(std::vector<SchedulerLogRecord> records,
                       log_->Records());

  // Held-vote bookkeeping reconstructed from HELD records: which processes
  // durably voted "prepared", and the subsystem:tx handle of each branch.
  struct HeldBranch {
    ActivityId activity;
    int64_t subsystem_id = -1;
    int64_t tx = -1;
  };
  std::set<int64_t> held_voted;
  std::map<int64_t, std::vector<HeldBranch>> held_branches;

  // Rebuild process execution states. Replay is defensive: a crash can
  // legitimately leave records that no longer apply — a write-ahead COMP
  // intention whose pending step was superseded by a cascading abort shows
  // up as a duplicate COMP; a compaction concurrent with the crash can drop
  // a process that later records still mention. Such records are skipped
  // and counted (stats.recovered_log_anomalies) rather than failing
  // recovery.
  for (const SchedulerLogRecord& record : records) {
    switch (record.kind) {
      case SchedulerLogRecord::Kind::kProcessBegin: {
        auto def_it = defs_by_name.find(record.def_name);
        if (def_it == defs_by_name.end()) {
          return Status::NotFound(
              StrCat("unknown process definition: ", record.def_name));
        }
        auto rt = std::make_unique<ProcessRuntime>(record.pid, def_it->second);
        rt->param = record.param;
        TPM_RETURN_IF_ERROR(history_.AddProcess(record.pid, def_it->second));
        next_pid_ = std::max(next_pid_, record.pid.value() + 1);
        EmplaceRuntime(record.pid, std::move(rt));
        break;
      }
      case SchedulerLogRecord::Kind::kActivityCommitted:
      case SchedulerLogRecord::Kind::kActivityCompensated: {
        const bool inverse =
            record.kind == SchedulerLogRecord::Kind::kActivityCompensated;
        ProcessRuntime* rt = FindRuntime(record.pid);
        if (rt == nullptr ||
            !(inverse ? rt->state.RecordCompensation(record.activity)
                      : rt->state.RecordCommit(record.activity))
                 .ok()) {
          ++stats_.recovered_log_anomalies;
          break;
        }
        TPM_RETURN_IF_ERROR(history_.Append(
            ScheduleEvent::Activity(
                ActivityInstance{record.pid, record.activity, inverse}),
            /*enforce_legal=*/false));
        break;
      }
      case SchedulerLogRecord::Kind::kProcessCommitted:
      case SchedulerLogRecord::Kind::kProcessAborted: {
        const bool committed =
            record.kind == SchedulerLogRecord::Kind::kProcessCommitted;
        if (ProcessRuntime* rt = FindRuntime(record.pid)) {
          committed ? rt->state.RecordCommitProcess()
                    : rt->state.RecordAbortProcess();
        }
        TPM_RETURN_IF_ERROR(history_.Append(
            committed ? ScheduleEvent::Commit(record.pid)
                      : ScheduleEvent::Abort(record.pid),
            /*enforce_legal=*/false));
        break;
      }
      case SchedulerLogRecord::Kind::kCommitHeld: {
        if (FindRuntime(record.pid) == nullptr) {
          ++stats_.recovered_log_anomalies;
          break;
        }
        if (!record.activity.valid()) {
          // The vote marker: only its durable presence means "voted".
          held_voted.insert(record.pid.value());
          history_.MarkVote(record.pid);
          break;
        }
        const size_t colon = record.def_name.find(':');
        if (colon == std::string::npos) {
          ++stats_.recovered_log_anomalies;
          break;
        }
        Result<int64_t> subsystem_id =
            ParseInt64(record.def_name.substr(0, colon));
        Result<int64_t> tx = ParseInt64(record.def_name.substr(colon + 1));
        if (!subsystem_id.ok() || !tx.ok()) {
          ++stats_.recovered_log_anomalies;
          break;
        }
        held_branches[record.pid.value()].push_back(
            HeldBranch{record.activity, *subsystem_id, *tx});
        break;
      }
    }
  }

  // Replay flipped outcomes directly (no FinishProcess), so rebuild the
  // active and footprint indexes before anything consumes them — slot
  // order keeps both sorted.
  active_pids_.clear();
  for (std::vector<ProcessId>& row : service_footprint_) row.clear();
  for (const auto& rt : runtimes_) {
    if (rt == nullptr || !rt->state.IsActive()) continue;
    active_pids_.push_back(rt->pid);
    AddFootprint(*rt);
  }

  // Resolve in-doubt spanning sub-processes (Lemma 1 generalized so a
  // shard is a 2PC participant). A durable vote marker plus a coordinator
  // commit decision — relayed by the caller through `directives`, keyed by
  // sub-process definition name — means the spanning process globally
  // committed: finish phase two for the recorded branches and commit the
  // sub-process. Voted sub-processes WITHOUT a decision fall through to
  // presumed abort below; their branches were never released into the
  // history, so rolling them back leaves nothing to compensate.
  if (directives != nullptr && !directives->force_commit.empty()) {
    for (const auto& rt : runtimes_) {
      if (rt == nullptr || !rt->state.IsActive()) continue;
      if (held_voted.count(rt->pid.value()) == 0) continue;
      if (directives->force_commit.count(rt->def->name()) == 0) continue;
      for (const HeldBranch& b : held_branches[rt->pid.value()]) {
        if (rt->state.IsCommitted(b.activity)) {
          continue;  // released and logged before the crash
        }
        Subsystem* subsystem = nullptr;
        for (Subsystem* s : subsystems_) {
          if (s->id().value() == b.subsystem_id) subsystem = s;
        }
        if (subsystem == nullptr) {
          return Status::NotFound(StrCat(
              "held branch names unknown subsystem ", b.subsystem_id));
        }
        // The branch may have been committed in phase two right before the
        // crash with its ACT record lost — then CommitPrepared fails and
        // the effect is already durable, which is exactly the state this
        // path establishes.
        (void)subsystem->CommitPrepared(TxId(b.tx));
        if (!rt->state.RecordCommit(b.activity).ok()) {
          ++stats_.recovered_log_anomalies;
          continue;
        }
        TPM_RETURN_IF_ERROR(history_.Append(
            ScheduleEvent::Activity(
                ActivityInstance{rt->pid, b.activity, false}),
            /*enforce_legal=*/false));
        TPM_RETURN_IF_ERROR(
            log_->Append({SchedulerLogRecord::Kind::kActivityCommitted,
                          rt->pid, b.activity, "", 0}));
      }
      TPM_RETURN_IF_ERROR(FinishProcess(*rt, /*committed=*/true));
      ++stats_.in_doubt_resolved;
    }
  }

  // Presumed abort: prepared branches whose commit was never decided are
  // rolled back in every subsystem. (After the force-commit pass — replay
  // itself never touches subsystems, and phase two above must see the
  // prepared transactions still in place.)
  for (Subsystem* subsystem : subsystems_) {
    TPM_RETURN_IF_ERROR(subsystem->AbortAllPrepared());
  }

  // Group abort of all in-flight processes (Def. 8 2b): compensations of
  // all completions first, in global reverse order of the original commits
  // (Lemma 2), then the forward recovery paths (Lemma 3).
  //
  // While it runs, appends stay staged even on a synchronous log: the log
  // is synced only where the write-ahead rules need it — before each
  // subsystem invocation (the COMP intention's flush, or a flush of the
  // previous forward step's ACT) and once before returning. That keeps a
  // synchronous log's window at one in-flight record, and no inverse can
  // run twice, without one sync per ABORT, ACT and COMP record.
  Wal::DeferSync staged(log_->wal());
  const bool synchronous = log_->wal()->synchronous();
  struct BackwardItem {
    ProcessId pid;
    ActivityId activity;
    size_t log_pos;
  };
  std::vector<BackwardItem> backward;
  std::vector<std::pair<ProcessId, ActivityId>> forward;
  std::vector<ProcessId> aborting;

  // Position of each original commit in the log for Lemma 2 ordering.
  std::map<std::pair<int64_t, int64_t>, size_t> act_pos;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].kind == SchedulerLogRecord::Kind::kActivityCommitted) {
      act_pos[{records[i].pid.value(), records[i].activity.value()}] = i;
    }
  }

  for (const auto& rt : runtimes_) {
    if (rt == nullptr || !rt->state.IsActive()) continue;
    aborting.push_back(rt->pid);
    TPM_ASSIGN_OR_RETURN(Completion completion, ComputeCompletion(rt->state));
    for (const CompletionStep& step : completion.steps) {
      if (step.inverse) {
        auto pos = act_pos.find({rt->pid.value(), step.activity.value()});
        backward.push_back(BackwardItem{
            rt->pid, step.activity,
            pos == act_pos.end() ? size_t{0} : pos->second});
      } else {
        forward.emplace_back(rt->pid, step.activity);
      }
    }
  }
  std::stable_sort(backward.begin(), backward.end(),
                   [](const BackwardItem& a, const BackwardItem& b) {
                     return a.log_pos > b.log_pos;
                   });

  auto execute_step = [&](ProcessId pid, ActivityId activity,
                          bool inverse) -> Status {
    ProcessRuntime& rt = *FindRuntime(pid);
    const ActivityDecl& decl = rt.def->activity(activity);
    ServiceId service = inverse ? decl.compensation_service : decl.service;
    TPM_ASSIGN_OR_RETURN(Subsystem * subsystem, RouteService(service));
    ServiceRequest request{pid, activity, rt.param};
    // Same write-ahead discipline as normal execution: the COMP intention
    // is durable before the inverse runs, so a crash during this recovery
    // never leads a second recovery to re-apply it.
    if (inverse) {
      TPM_RETURN_IF_ERROR(LogCompensationIntent(pid, activity));
    } else if (synchronous &&
               log_->wal()->size() > log_->wal()->durable_size()) {
      TPM_RETURN_IF_ERROR(log_->Flush());
    }
    for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
      Result<InvocationOutcome> outcome =
          subsystem->Invoke(service, request);
      if (outcome.ok()) {
        return EmitActivity(rt, activity, inverse);
      }
      // Recovery cannot wait for a later pass: a blocked step fails it, an
      // aborted one is re-invoked at once.
      TPM_ASSIGN_OR_RETURN(bool retry, InvocationFailed(outcome.status(), [] {
                             return Status::OK();
                           }));
      if (!retry) return outcome.status();
    }
    return Status::Internal("recovery step exceeded retry cap");
  };

  for (const BackwardItem& item : backward) {
    TPM_RETURN_IF_ERROR(execute_step(item.pid, item.activity, true));
  }
  for (const auto& [pid, activity] : forward) {
    TPM_RETURN_IF_ERROR(execute_step(pid, activity, false));
  }
  for (ProcessId pid : aborting) {
    TPM_RETURN_IF_ERROR(FinishProcess(*FindRuntime(pid), /*committed=*/false));
  }
  // Make the records appended during recovery (forward ACTs, terminal
  // ABORTs) durable before declaring recovery complete — they are staged,
  // so an immediate second crash would otherwise replay from the
  // pre-recovery log and redo work whose effects already reached the
  // subsystems.
  return log_->Flush();
}

}  // namespace tpm
