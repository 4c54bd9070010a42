#include "core/completed_schedule.h"

#include <algorithm>

#include "common/str_util.h"

namespace tpm {

CompletionBuilder::CompletionBuilder(const ProcessSchedule& schedule) {
  for (const auto& [pid, def] : schedule.processes()) {
    Status s = expanded_.AddProcess(pid, def);
    (void)s;  // cannot fail: defs were validated on original insertion
    active_.insert(pid);
  }
}

Status CompletionBuilder::AppendExpanded(const ScheduleEvent& event,
                                         bool enforce_legal) {
  TPM_RETURN_IF_ERROR(expanded_.Append(event, enforce_legal));
  if (event.type == EventType::kActivity) {
    if (!event.aborted_invocation) {
      ProcState& state = procs_[event.act.process];
      ++state.version;
      if (active_.count(event.act.process) > 0) {
        started_[event.act.process] = &state;
      }
      if (!event.act.inverse) {
        commit_pos_[event.act] = expanded_.size() - 1;
      }
    }
    return Status::OK();
  }
  const ProcessExecutionState* state = expanded_.StateOf(event.process);
  if (state != nullptr && !state->IsActive()) {
    active_.erase(event.process);
    started_.erase(event.process);
  }
  return Status::OK();
}

Status CompletionBuilder::Refresh(ProcessId pid, ProcState* state) {
  if (state->cached && state->cached_version == state->version) {
    return state->status;
  }
  const ProcessExecutionState* execution = expanded_.StateOf(pid);
  if (execution == nullptr) {
    return Status::NotFound(StrCat("unknown process P", pid));
  }
  state->cached = true;
  state->cached_version = state->version;
  state->services.clear();
  state->positions.clear();
  Result<Completion> completion = ComputeCompletion(*execution);
  state->status = completion.status();
  if (!completion.ok()) return state->status;
  state->completion = std::move(completion).value();
  // The steps must append legally, as Finish's Append would demand.
  ProcessExecutionState probe = *execution;
  for (const CompletionStep& step : state->completion.steps) {
    state->status = step.inverse ? probe.RecordCompensation(step.activity)
                                 : probe.CheckCommitLegal(step.activity);
    if (state->status.ok() && !step.inverse) {
      state->status = probe.RecordCommit(step.activity);
    }
    if (!state->status.ok()) return state->status;
    size_t position = 0;
    if (step.inverse) {
      auto it = commit_pos_.find(ActivityInstance{pid, step.activity, false});
      if (it != commit_pos_.end()) position = it->second;
    }
    state->services.push_back(
        expanded_.ServiceOf(ActivityInstance{pid, step.activity, false}));
    state->positions.push_back(position);
  }
  return state->status;
}

Result<std::vector<TailStep>> CompletionBuilder::Merge(const Members& members) {
  struct BackwardStep {
    TailStep step;        // the inverse instance to emit
    size_t original_pos;  // position of the original activity
  };
  std::vector<BackwardStep> backward;
  std::vector<TailStep> forward;
  for (const auto& [pid, state] : members) {
    TPM_RETURN_IF_ERROR(Refresh(pid, state));
    const std::vector<CompletionStep>& steps = state->completion.steps;
    for (size_t i = 0; i < steps.size(); ++i) {
      TailStep step{{pid, steps[i].activity, steps[i].inverse},
                    state->services[i]};
      if (steps[i].inverse) {
        backward.push_back({step, state->positions[i]});
      } else {
        forward.push_back(step);
      }
    }
  }
  // Compensations in reverse order of the original activities (Lemma 2);
  // stable sort keeps deterministic output when positions tie.
  std::stable_sort(backward.begin(), backward.end(),
                   [](const BackwardStep& a, const BackwardStep& b) {
                     return a.original_pos > b.original_pos;
                   });
  // All compensations precede all forward steps (Lemma 3). Forward steps
  // keep per-process completion order; `members` order fixes the
  // inter-process order required by Def. 8 3(d).
  std::vector<TailStep> merged;
  merged.reserve(backward.size() + forward.size());
  for (const BackwardStep& step : backward) merged.push_back(step.step);
  merged.insert(merged.end(), forward.begin(), forward.end());
  return merged;
}

Status CompletionBuilder::ExpandAbort(const std::vector<ProcessId>& pids) {
  Members members;
  for (ProcessId pid : pids) members.emplace_back(pid, &procs_[pid]);
  TPM_ASSIGN_OR_RETURN(std::vector<TailStep> merged, Merge(members));
  for (const TailStep& step : merged) {
    TPM_RETURN_IF_ERROR(AppendExpanded(ScheduleEvent::Activity(step.act),
                                       /*enforce_legal=*/true));
  }
  for (ProcessId pid : pids) {
    TPM_RETURN_IF_ERROR(
        AppendExpanded(ScheduleEvent::Commit(pid), /*enforce_legal=*/true));
  }
  return Status::OK();
}

Status CompletionBuilder::Add(const ScheduleEvent& event) {
  switch (event.type) {
    case EventType::kActivity:
    case EventType::kCommit:
      return AppendExpanded(event, /*enforce_legal=*/false);
    case EventType::kAbort:
      return ExpandAbort({event.process});
    case EventType::kGroupAbort:
      return ExpandAbort(event.group);
  }
  return Status::OK();
}

Result<std::vector<TailStep>> CompletionBuilder::ActiveTail() {
  return Merge(Members(started_.begin(), started_.end()));
}

Result<ProcessSchedule> CompletionBuilder::Finish() && {
  // Def. 8 2(b): all still-active processes are aborted jointly at the end.
  if (!active_.empty()) {
    TPM_RETURN_IF_ERROR(
        ExpandAbort(std::vector<ProcessId>(active_.begin(), active_.end())));
  }
  return std::move(expanded_);
}

Result<ProcessSchedule> CompleteSchedule(const ProcessSchedule& schedule) {
  CompletionBuilder builder(schedule);
  for (const ScheduleEvent& event : schedule.events()) {
    TPM_RETURN_IF_ERROR(builder.Add(event));
  }
  return std::move(builder).Finish();
}

}  // namespace tpm
