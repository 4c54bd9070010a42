#include "core/schedule.h"

#include <algorithm>

#include "common/str_util.h"

namespace tpm {

ScheduleEvent ScheduleEvent::Activity(ActivityInstance inst,
                                      bool aborted_invocation) {
  ScheduleEvent e;
  e.type = EventType::kActivity;
  e.act = inst;
  e.aborted_invocation = aborted_invocation;
  e.process = inst.process;
  return e;
}

ScheduleEvent ScheduleEvent::Commit(ProcessId pid) {
  ScheduleEvent e;
  e.type = EventType::kCommit;
  e.process = pid;
  return e;
}

ScheduleEvent ScheduleEvent::Abort(ProcessId pid) {
  ScheduleEvent e;
  e.type = EventType::kAbort;
  e.process = pid;
  return e;
}

ScheduleEvent ScheduleEvent::GroupAbort(std::vector<ProcessId> pids) {
  ScheduleEvent e;
  e.type = EventType::kGroupAbort;
  e.group = std::move(pids);
  return e;
}

std::string ScheduleEvent::ToString() const {
  switch (type) {
    case EventType::kActivity: {
      std::string s = ActivityInstanceToString(act);
      if (aborted_invocation) s += "(abort)";
      return s;
    }
    case EventType::kCommit:
      return StrCat("C", process.value());
    case EventType::kAbort:
      return StrCat("A", process.value());
    case EventType::kGroupAbort: {
      std::string s = "A(";
      bool first = true;
      for (ProcessId p : group) {
        if (!first) s += ",";
        first = false;
        s += StrCat("P", p.value());
      }
      return s + ")";
    }
  }
  return "?";
}

Status ProcessSchedule::AddProcess(ProcessId pid, const ProcessDef* def) {
  if (def == nullptr || !def->validated()) {
    return Status::InvalidArgument("process definition missing or unvalidated");
  }
  if (!states_.try_emplace(pid, pid, def).second) {
    return Status::AlreadyExists(StrCat("process P", pid, " already present"));
  }
  return Status::OK();
}

const ProcessDef* ProcessSchedule::DefOf(ProcessId pid) const {
  auto it = states_.find(pid);
  return it == states_.end() ? nullptr : &it->second.def();
}

const ProcessExecutionState* ProcessSchedule::StateOf(ProcessId pid) const {
  auto it = states_.find(pid);
  return it == states_.end() ? nullptr : &it->second;
}

Status ProcessSchedule::Append(const ScheduleEvent& event, bool enforce_legal) {
  switch (event.type) {
    case EventType::kActivity: {
      auto it = states_.find(event.act.process);
      if (it == states_.end()) {
        return Status::NotFound(
            StrCat("unknown process P", event.act.process));
      }
      ProcessExecutionState& state = it->second;
      if (!state.def().HasActivity(event.act.activity)) {
        return Status::NotFound(StrCat("unknown activity a", event.act));
      }
      if (enforce_legal && !state.IsActive()) {
        return Status::FailedPrecondition(
            StrCat("process P", event.act.process, " already terminated"));
      }
      if (event.aborted_invocation) {
        // Aborted invocations leave no trace in the process state.
        break;
      }
      if (event.act.inverse) {
        Status s = state.RecordCompensation(event.act.activity);
        if (enforce_legal) TPM_RETURN_IF_ERROR(s);
      } else {
        if (enforce_legal) {
          TPM_RETURN_IF_ERROR(state.CheckCommitLegal(event.act.activity));
        }
        Status s = state.RecordCommit(event.act.activity);
        if (enforce_legal) TPM_RETURN_IF_ERROR(s);
      }
      break;
    }
    case EventType::kCommit:
    case EventType::kAbort: {
      auto it = states_.find(event.process);
      if (it == states_.end()) {
        return Status::NotFound(StrCat("unknown process P", event.process));
      }
      if (enforce_legal && !it->second.IsActive()) {
        return Status::FailedPrecondition(
            StrCat("process P", event.process, " already terminated"));
      }
      if (event.type == EventType::kCommit) {
        it->second.RecordCommitProcess();
      } else {
        it->second.RecordAbortProcess();
      }
      break;
    }
    case EventType::kGroupAbort: {
      for (ProcessId pid : event.group) {
        auto it = states_.find(pid);
        if (it == states_.end()) {
          return Status::NotFound(StrCat("unknown process P", pid));
        }
        if (enforce_legal && !it->second.IsActive()) {
          return Status::FailedPrecondition(
              StrCat("process P", pid, " already terminated"));
        }
        it->second.RecordAbortProcess();
      }
      break;
    }
  }
  events_.push_back(event);
  return Status::OK();
}

void ProcessSchedule::MarkVote(ProcessId pid) { votes_[pid] = events_.size(); }

size_t ProcessSchedule::VotePosition(ProcessId pid) const {
  auto it = votes_.find(pid);
  return it == votes_.end() ? 0 : it->second;
}

std::vector<ProcessId> ProcessSchedule::ActiveProcesses() const {
  std::vector<ProcessId> active;
  for (const auto& [pid, state] : states_) {
    if (state.IsActive()) active.push_back(pid);
  }
  return active;
}

bool ProcessSchedule::IsProcessCommitted(ProcessId pid) const {
  const auto* state = StateOf(pid);
  return state != nullptr && state->outcome() == ProcessOutcome::kCommitted;
}

ProcessSchedule ProcessSchedule::Prefix(size_t n) const {
  ProcessSchedule prefix;
  for (const auto& [pid, state] : states_) {
    Status s = prefix.AddProcess(pid, &state.def());
    (void)s;  // cannot fail: defs were validated on original insertion
  }
  const size_t count = std::min(n, events_.size());
  for (size_t i = 0; i < count; ++i) {
    // Events were legal in the full schedule; replay without re-checking so
    // prefixes of deliberately malformed schedules stay representable.
    Status s = prefix.Append(events_[i], /*enforce_legal=*/false);
    (void)s;
  }
  for (const auto& [pid, pos] : votes_) {
    if (pos <= count) prefix.votes_[pid] = pos;
  }
  return prefix;
}

void ProcessSchedule::ReleaseProcess(ProcessId pid) {
  if (states_.erase(pid) == 0) return;
  votes_.erase(pid);
  released_.insert(pid);
}

void ProcessSchedule::Compact() {
  if (released_.empty()) return;
  auto erased = [&](const ScheduleEvent& e) {
    if (e.type == EventType::kGroupAbort) {
      // A group-abort marker survives until every member is released.
      for (ProcessId p : e.group) {
        if (released_.count(p) == 0) return false;
      }
      return true;
    }
    return released_.count(e.process) > 0;
  };
  if (!votes_.empty()) {
    // A vote moves forward by the number of erased events before it.
    std::vector<size_t> kept_before(events_.size() + 1, 0);
    for (size_t i = 0; i < events_.size(); ++i) {
      kept_before[i + 1] = kept_before[i] + (erased(events_[i]) ? 0 : 1);
    }
    for (auto& [pid, pos] : votes_) pos = kept_before[pos];
  }
  std::erase_if(events_, erased);
  released_.clear();
}

ServiceId ProcessSchedule::ServiceOf(const ActivityInstance& inst) const {
  const ProcessDef* def = DefOf(inst.process);
  if (def == nullptr || !def->HasActivity(inst.activity)) return ServiceId();
  // Perfect commutativity: a^-1 has exactly the conflicts of a, so conflict
  // tests use the base service even for inverse instances.
  return def->activity(inst.activity).service;
}

bool ProcessSchedule::InstancesConflict(const ActivityInstance& a,
                                        const ActivityInstance& b,
                                        const ConflictSpec& spec) const {
  if (a.process == b.process) return false;
  ServiceId sa = ServiceOf(a);
  ServiceId sb = ServiceOf(b);
  if (!sa.valid() || !sb.valid()) return false;
  return spec.ServicesConflict(sa, sb);
}

std::string ProcessSchedule::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(events_.size());
  for (const auto& e : events_) parts.push_back(e.ToString());
  return StrCat("<", StrJoin(parts, " "), ">");
}

ProcessSchedule CommittedProjection(const ProcessSchedule& schedule) {
  ProcessSchedule out;
  for (const auto& [pid, def] : schedule.processes()) {
    if (schedule.IsProcessCommitted(pid)) (void)out.AddProcess(pid, def);
  }
  for (const ScheduleEvent& e : schedule.events()) {
    if (e.type == EventType::kGroupAbort) continue;
    const ProcessId pid =
        e.type == EventType::kActivity ? e.act.process : e.process;
    if (!schedule.IsProcessCommitted(pid)) continue;
    (void)out.Append(e, /*enforce_legal=*/false);
  }
  return out;
}

}  // namespace tpm
