#include "core/pred.h"

#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/str_util.h"
#include "core/completed_schedule.h"
#include "core/reduction_index.h"

namespace tpm {

std::string PredOutcome::ToString() const {
  if (prefix_reducible) return "PRED";
  std::ostringstream oss;
  oss << "not PRED: prefix of length " << violating_prefix
      << " is not reducible";
  if (!cycle.empty()) {
    oss << " (cycle:";
    for (ProcessId pid : cycle) oss << " P" << pid;
    oss << ")";
  }
  return oss.str();
}

namespace {

// One token of the expanded prefix, kept so the index can be rebuilt when
// rule 3's committed set changes.
struct ExpandedToken {
  ActivityInstance act;
  ServiceId service;
  bool effect_free = false;
};

// The conflict footprint: the services the schedule's definitions declare
// (S̃'s forward recovery steps included, though S never ran them), mapped
// to whether each is effect-free, for those that conflict with one of
// them (self-conflict included). A token on any other service commutes
// with every token of S̃ (rule 1), so it cannot change reducibility.
std::unordered_map<ServiceId, bool> RelevantServices(
    const ProcessSchedule& schedule, const ConflictSpec& spec) {
  std::unordered_set<const ProcessDef*> defs;
  std::unordered_set<ServiceId> footprint;
  for (const auto& [pid, def] : schedule.processes()) {
    if (!defs.insert(def).second) continue;
    for (const ActivityDecl& decl : def->activities()) {
      footprint.insert(decl.service);
    }
  }
  std::unordered_map<ServiceId, bool> relevant;
  for (ServiceId service : footprint) {
    bool conflicts = false;
    spec.ForEachPartner(service, [&](ServiceId partner) {
      conflicts = conflicts || footprint.count(partner) > 0;
    });
    if (conflicts) relevant.emplace(service, spec.IsEffectFreeService(service));
  }
  return relevant;
}

// Whether S̃'s relevant token sequence is the one of the previous prefix,
// given the tokens the event appended to the expanded prefix and how it
// changed the tail (DESIGN.md §4l). The caller has ruled out a rule-3 flip.
bool SameSequence(const std::vector<ActivityInstance>& appended,
                  const CompletionBuilder::TailChange& change) {
  if (change.added.empty()) {
    // (a) The appended tokens are the steps that left the tail, and they
    // were its head; (c) with nothing appended and nothing removed.
    if (!change.removed_head || appended.size() != change.removed.size()) {
      return false;
    }
    for (size_t i = 0; i < appended.size(); ++i) {
      if (!(appended[i] == change.removed[i].act)) return false;
    }
    return true;
  }
  // (b) An original t whose inverse joins an otherwise unchanged tail.
  // t's commit is the newest, so Lemma 2 puts t^-1 at the tail's head:
  // t t^-1 are adjacent and cancel (rule 2).
  return appended.size() == 1 && !appended[0].inverse &&
         change.removed.empty() && change.added.size() == 1 &&
         change.added[0].act == ActivityInstance{appended[0].process,
                                                 appended[0].activity, true};
}

}  // namespace

Result<PredOutcome> AnalyzePRED(const ProcessSchedule& schedule,
                                const ConflictSpec& spec) {
  PredOutcome outcome;
  const std::unordered_map<ServiceId, bool> relevant =
      RelevantServices(schedule, spec);
  // The tail's processes are active, hence not committed: rule 3 drops
  // its effect-free steps.
  const CompletionBuilder::TailFilter in_tail = [&relevant](ServiceId s) {
    auto it = relevant.find(s);
    return it != relevant.end() && !it->second;
  };
  CompletionBuilder builder(schedule);
  CompletionBuilder::TailChange change;

  // Rule 3 reads the committed set of the prefix of S itself (not of S̃).
  std::set<ProcessId> committed;
  std::set<ProcessId> has_effect_free;
  std::vector<ExpandedToken> expanded_tokens;
  auto present = [&](const ExpandedToken& token) {
    return !token.effect_free || committed.count(token.act.process) > 0;
  };
  auto make_index = [&] {
    auto index = std::make_unique<ReductionIndex>(spec, /*track_graph=*/true);
    for (const auto& [pid, def] : schedule.processes()) {
      index->AddProcess(pid);
      if (builder.active().count(pid) == 0) index->Terminate(pid);
    }
    return index;
  };
  std::unique_ptr<ReductionIndex> index = make_index();
  std::vector<ActivityInstance> appended;

  const std::vector<ScheduleEvent>& events = schedule.events();
  for (size_t n = 1; n <= events.size(); ++n) {
    const ScheduleEvent& event = events[n - 1];
    const size_t before = builder.expanded().size();
    TPM_RETURN_IF_ERROR(builder.Add(event));

    // A commit (or an abort after one) changes rule 3 for the process's
    // effect-free tokens already appended: the one non-monotone step, so
    // the index is rebuilt rather than patched (DESIGN.md §4l).
    bool rebuild = false;
    auto terminate = [&](ProcessId pid, bool commits) {
      const bool was = committed.count(pid) > 0;
      if (commits) {
        committed.insert(pid);
      } else {
        committed.erase(pid);
      }
      if (was != commits && has_effect_free.count(pid) > 0) rebuild = true;
      if (builder.active().count(pid) == 0) index->Terminate(pid);
    };
    switch (event.type) {
      case EventType::kActivity:
        break;
      case EventType::kCommit:
        terminate(event.process, true);
        break;
      case EventType::kAbort:
        terminate(event.process, false);
        break;
      case EventType::kGroupAbort:
        for (ProcessId pid : event.group) terminate(pid, false);
        break;
    }

    const ProcessSchedule& expanded = builder.expanded();
    appended.clear();
    for (size_t i = before; i < expanded.size(); ++i) {
      const ScheduleEvent& e = expanded.events()[i];
      if (e.type != EventType::kActivity || e.aborted_invocation) continue;
      ExpandedToken token{e.act, expanded.ServiceOf(e.act), false};
      auto it = relevant.find(token.service);
      if (it == relevant.end()) continue;
      token.effect_free = it->second;
      if (token.effect_free) has_effect_free.insert(e.act.process);
      expanded_tokens.push_back(token);
      if (present(token)) appended.push_back(token.act);
      if (!rebuild) index->Append(token.act, token.service, present(token));
    }
    if (rebuild) {
      index = make_index();
      for (const ExpandedToken& token : expanded_tokens) {
        index->Append(token.act, token.service, present(token));
      }
    }

    TPM_RETURN_IF_ERROR(builder.SyncTail(event, in_tail, &change));
    // The previous prefix reduced; so does this one if S̃ is the same.
    if (!rebuild && !index->irregular() && SameSequence(appended, change)) {
      continue;
    }
    ++outcome.tail_trials;
    switch (index->ReducesWithTail(builder.Tail(), &outcome.cycle)) {
      case ReductionIndex::Verdict::kReducible:
        break;
      case ReductionIndex::Verdict::kIrreducible:
        outcome.prefix_reducible = false;
        outcome.violating_prefix = n;
        return outcome;
      case ReductionIndex::Verdict::kIrregular:
        return AnalyzePREDReference(schedule, spec);
    }
  }
  outcome.prefix_reducible = true;
  return outcome;
}

Result<PredOutcome> AnalyzePREDReference(const ProcessSchedule& schedule,
                                         const ConflictSpec& spec) {
  PredOutcome outcome;
  // Every prefix, including the empty one and the full schedule, must be
  // reducible. Empty prefixes are trivially reducible; start at length 1.
  for (size_t n = 1; n <= schedule.size(); ++n) {
    ProcessSchedule prefix = schedule.Prefix(n);
    TPM_ASSIGN_OR_RETURN(ReductionOutcome red, AnalyzeRED(prefix, spec));
    if (!red.reducible) {
      outcome.prefix_reducible = false;
      outcome.violating_prefix = n;
      outcome.cycle = red.cycle;
      return outcome;
    }
  }
  outcome.prefix_reducible = true;
  return outcome;
}

Result<bool> IsPRED(const ProcessSchedule& schedule,
                    const ConflictSpec& spec) {
  TPM_ASSIGN_OR_RETURN(PredOutcome outcome, AnalyzePRED(schedule, spec));
  return outcome.prefix_reducible;
}

}  // namespace tpm
