#include "core/pred.h"

#include <memory>
#include <set>

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

}  // namespace

Result<PredOutcome> AnalyzePRED(const ProcessSchedule& schedule,
                                const ConflictSpec& spec) {
  PredOutcome outcome;
  CompletionBuilder builder(schedule);
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
    for (size_t i = before; i < expanded.size(); ++i) {
      const ScheduleEvent& e = expanded.events()[i];
      if (e.type != EventType::kActivity || e.aborted_invocation) continue;
      ExpandedToken token{e.act, expanded.ServiceOf(e.act), false};
      token.effect_free = spec.IsEffectFreeService(token.service);
      if (token.effect_free) has_effect_free.insert(e.act.process);
      expanded_tokens.push_back(token);
      if (!rebuild) index->Append(token.act, token.service, present(token));
    }
    if (rebuild) {
      index = make_index();
      for (const ExpandedToken& token : expanded_tokens) {
        index->Append(token.act, token.service, present(token));
      }
    }

    TPM_ASSIGN_OR_RETURN(std::vector<TailStep> tail, builder.ActiveTail());
    switch (index->ReducesWithTail(tail, &outcome.cycle)) {
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
