#include "core/completed_schedule.h"

#include <algorithm>
#include <span>

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
      if (!event.act.inverse) {
        const size_t index =
            static_cast<size_t>(event.act.activity.value() - 1);
        if (state.commit_pos.size() <= index) {
          state.commit_pos.resize(index + 1, 0);
        }
        state.commit_pos[index] = expanded_.size() - 1;
      }
    }
    return Status::OK();
  }
  const ProcessExecutionState* state = expanded_.StateOf(event.process);
  if (state != nullptr && !state->IsActive()) {
    active_.erase(event.process);
  }
  return Status::OK();
}

size_t CompletionBuilder::MemoKeyHash::operator()(const MemoKey& key) const {
  // FNV-1a over the key's words.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t word) {
    h ^= word;
    h *= 1099511628211ull;
  };
  mix(reinterpret_cast<uintptr_t>(key.def));
  mix(static_cast<uint64_t>(key.outcome));
  for (const auto& [activity, compensated] : key.commits) {
    mix(static_cast<uint64_t>(activity.value()) * 2 + (compensated ? 1 : 0));
  }
  return static_cast<size_t>(h);
}

const CompletionBuilder::Memo& CompletionBuilder::Memoised(
    const ProcessExecutionState& execution) {
  probe_.def = &execution.def();
  probe_.outcome = execution.outcome();
  probe_.commits.clear();
  for (ActivityId a : execution.committed_order()) {
    probe_.commits.emplace_back(a, execution.IsCompensated(a));
  }
  auto it = memo_.find(probe_);
  if (it != memo_.end()) return it->second;
  Memo memo;
  Result<Completion> completion = ComputeCompletion(execution);
  memo.status = completion.status();
  if (completion.ok()) {
    memo.completion = std::move(completion).value();
    // The steps must append legally, as Finish's Append would demand.
    ProcessExecutionState probe = execution;
    for (const CompletionStep& step : memo.completion.steps) {
      memo.status = step.inverse ? probe.RecordCompensation(step.activity)
                                 : probe.CheckCommitLegal(step.activity);
      if (memo.status.ok() && !step.inverse) {
        memo.status = probe.RecordCommit(step.activity);
      }
      if (!memo.status.ok()) break;
      memo.services.push_back(execution.def().activity(step.activity).service);
    }
  }
  return memo_.emplace(probe_, std::move(memo)).first->second;
}

Status CompletionBuilder::Refresh(ProcessId pid, ProcState* state) {
  if (state->memo != nullptr && state->cached_version == state->version) {
    return state->memo->status;
  }
  const ProcessExecutionState* execution = expanded_.StateOf(pid);
  if (execution == nullptr) {
    return Status::NotFound(StrCat("unknown process P", pid));
  }
  state->cached_version = state->version;
  state->memo = &Memoised(*execution);
  return state->memo->status;
}

bool CompletionBuilder::TailBefore::operator()(const TailKey& a,
                                               const TailKey& b) const {
  if (a.forward != b.forward) return !a.forward;
  if (!a.forward && a.position != b.position) return a.position > b.position;
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.index < b.index;
}

std::vector<CompletionBuilder::KeptStep> CompletionBuilder::Keyed(
    ProcessId pid, int64_t rank, const ProcState& state,
    const TailFilter& keep) const {
  std::vector<KeptStep> keyed;
  const std::vector<CompletionStep>& steps = state.memo->completion.steps;
  const std::vector<ServiceId>& services = state.memo->services;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (!keep(services[i])) continue;
    const bool forward = !steps[i].inverse;
    // Lemma 2 orders the inverses by this process's own commit positions,
    // which the memo does not share.
    size_t position = 0;
    const size_t index = static_cast<size_t>(steps[i].activity.value() - 1);
    if (!forward && index < state.commit_pos.size()) {
      position = state.commit_pos[index];
    }
    keyed.push_back({{forward, position, rank, i},
                     {{pid, steps[i].activity, steps[i].inverse},
                      services[i]}});
  }
  std::sort(keyed.begin(), keyed.end());
  return keyed;
}

Result<std::vector<TailStep>> CompletionBuilder::Merge(const Members& members) {
  const TailFilter keep_all = [](ServiceId) { return true; };
  std::vector<KeptStep> keyed;
  for (size_t rank = 0; rank < members.size(); ++rank) {
    const auto& [pid, state] = members[rank];
    TPM_RETURN_IF_ERROR(Refresh(pid, state));
    std::vector<KeptStep> steps =
        Keyed(pid, static_cast<int64_t>(rank), *state, keep_all);
    keyed.insert(keyed.end(), steps.begin(), steps.end());
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<TailStep> merged;
  merged.reserve(keyed.size());
  for (const KeptStep& step : keyed) merged.push_back(step.step);
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

Status CompletionBuilder::SyncTail(const ScheduleEvent& event,
                                   const TailFilter& in_tail,
                                   TailChange* change) {
  auto same_step = [](const KeptStep& a, const KeptStep& b) {
    return a.step.act == b.step.act && a.key.forward == b.key.forward &&
           a.key.position == b.key.position;
  };
  // Completions depend only on their own process's execution state.
  std::span<const ProcessId> touched;
  switch (event.type) {
    case EventType::kActivity:
      if (!event.aborted_invocation) touched = {&event.act.process, 1};
      break;
    case EventType::kCommit:
    case EventType::kAbort:
      touched = {&event.process, 1};
      break;
    case EventType::kGroupAbort:
      touched = event.group;
      break;
  }
  std::vector<std::pair<ProcState*, std::vector<KeptStep>>> changed;
  std::vector<KeptStep> removed;
  std::vector<KeptStep> added;
  for (ProcessId pid : touched) {
    auto it = procs_.find(pid);
    if (it == procs_.end()) continue;  // never ran: an empty completion
    ProcState& state = it->second;
    std::vector<KeptStep> next;
    if (active_.count(pid) > 0) {
      TPM_RETURN_IF_ERROR(Refresh(pid, &state));
      next = Keyed(pid, pid.value(), state, in_tail);
    }
    // Trim the steps kept at either end; what is left in between changed.
    const std::vector<KeptStep>& old = state.kept;
    size_t head = 0;
    while (head < old.size() && head < next.size() &&
           same_step(old[head], next[head])) {
      ++head;
    }
    if (head == old.size() && head == next.size()) continue;
    size_t old_end = old.size();
    size_t next_end = next.size();
    while (old_end > head && next_end > head &&
           same_step(old[old_end - 1], next[next_end - 1])) {
      --old_end;
      --next_end;
    }
    removed.insert(removed.end(), old.begin() + head, old.begin() + old_end);
    added.insert(added.end(), next.begin() + head, next.begin() + next_end);
    changed.emplace_back(&state, std::move(next));
  }
  std::sort(removed.begin(), removed.end());
  std::sort(added.begin(), added.end());
  // The removed steps are in the tail; were they its first ones?
  change->removed_head = true;
  auto head = tail_.begin();
  for (const KeptStep& step : removed) {
    if (TailBefore()(head->first, step.key)) change->removed_head = false;
    ++head;
  }
  // Forward steps are keyed by their index in the completion, which can
  // shift: a changed process's steps are all re-keyed.
  for (auto& [state, next] : changed) {
    for (const KeptStep& step : state->kept) tail_.erase(step.key);
    for (const KeptStep& step : next) tail_.emplace(step.key, step.step);
    state->kept = std::move(next);
  }
  change->removed.clear();
  for (const KeptStep& step : removed) change->removed.push_back(step.step);
  change->added.clear();
  for (const KeptStep& step : added) change->added.push_back(step.step);
  return Status::OK();
}

std::vector<TailStep> CompletionBuilder::Tail() const {
  std::vector<TailStep> tail;
  tail.reserve(tail_.size());
  for (const auto& [key, step] : tail_) tail.push_back(step);
  return tail;
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
