#include "core/recoverability.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/str_util.h"

namespace tpm {

std::string ProcRecViolation::ToString() const {
  return StrCat("Proc-REC clause ", clause, " violated by ",
                ActivityInstanceToString(earlier), " <<_S ",
                ActivityInstanceToString(later));
}

namespace {

// Proc-REC over the events of every process, or of the committed ones
// only (`committed_only`).
ProcRecOutcome Analyze(const ProcessSchedule& schedule,
                       const ConflictSpec& spec, bool committed_only) {
  ProcRecOutcome outcome;
  const auto& events = schedule.events();
  const size_t n = events.size();
  constexpr size_t kNone = SIZE_MAX;

  // Dense process index per event, and one flat row per process: its
  // commit position.
  std::unordered_map<ProcessId, size_t> dense;
  std::vector<size_t> proc_of(n);
  for (size_t i = 0; i < n; ++i) {
    const ProcessId pid = events[i].type == EventType::kActivity
                              ? events[i].act.process
                              : events[i].process;
    proc_of[i] = dense.try_emplace(pid, dense.size()).first->second;
  }
  // Whether each process's events are read at all.
  std::vector<bool> read(dense.size(), true);
  if (committed_only) {
    for (const auto& [pid, index] : dense) {
      read[index] = schedule.IsProcessCommitted(pid);
    }
  }
  std::vector<size_t> commit_pos(dense.size(), kNone);
  for (size_t i = 0; i < n; ++i) {
    if (events[i].type == EventType::kCommit) commit_pos[proc_of[i]] = i;
  }

  // One backward sweep: next_non_comp[i] is the position of the next
  // non-compensatable original activity of event i's process strictly
  // after i, or kNone. Services get dense indices on the way (-1: none).
  std::vector<size_t> next_non_comp(n, kNone);
  std::vector<size_t> upcoming(dense.size(), kNone);
  std::vector<int> service(n, -1);
  std::unordered_map<ServiceId, int> service_index;
  std::vector<ServiceId> services;
  for (size_t i = n; i-- > 0;) {
    const ScheduleEvent& e = events[i];
    if (e.type != EventType::kActivity || e.aborted_invocation ||
        !read[proc_of[i]]) {
      continue;
    }
    next_non_comp[i] = upcoming[proc_of[i]];
    const ServiceId id = schedule.ServiceOf(e.act);
    if (id.valid()) {
      auto [it, fresh] = service_index.try_emplace(id, services.size());
      if (fresh) services.push_back(id);
      service[i] = it->second;
    }
    const ProcessDef* def = schedule.DefOf(e.act.process);
    if (!e.act.inverse && def != nullptr &&
        IsNonCompensatable(def->KindOf(e.act.activity))) {
      upcoming[proc_of[i]] = i;
    }
  }
  // Per service that occurs: its events in order, and the services that
  // occur and conflict with it.
  const size_t num_services = services.size();
  std::vector<std::vector<size_t>> events_of(num_services);
  for (size_t i = 0; i < n; ++i) {
    if (service[i] >= 0) events_of[service[i]].push_back(i);
  }
  std::vector<std::vector<int>> partners(num_services);
  for (size_t a = 0; a < num_services; ++a) {
    spec.ForEachPartner(services[a], [&](ServiceId partner) {
      auto it = service_index.find(partner);
      if (it != service_index.end()) partners[a].push_back(it->second);
    });
  }

  // Each event meets only the later events on conflicting services, in
  // schedule order.
  std::vector<size_t> later;
  for (size_t i = 0; i < n; ++i) {
    if (service[i] < 0) continue;
    later.clear();
    for (int partner : partners[service[i]]) {
      const std::vector<size_t>& list = events_of[partner];
      for (auto it = std::upper_bound(list.begin(), list.end(), i);
           it != list.end(); ++it) {
        if (proc_of[*it] != proc_of[i]) later.push_back(*it);
      }
    }
    std::sort(later.begin(), later.end());
    for (size_t j : later) {
      // Clause 1: C_i <<_S C_j.
      const size_t ci = commit_pos[proc_of[i]];
      const size_t cj = commit_pos[proc_of[j]];
      if (cj != kNone && (ci == kNone || ci > cj)) {
        outcome.violations.push_back(
            ProcRecViolation{events[i].act, events[j].act, 1});
      }
      // Clause 2: next non-compensatable of P_j after j must succeed the
      // next non-compensatable of P_i after i.
      const size_t a_jm = next_non_comp[j];
      const size_t a_in = next_non_comp[i];
      if (a_jm != kNone && a_in != kNone && a_jm < a_in) {
        outcome.violations.push_back(
            ProcRecViolation{events[i].act, events[j].act, 2});
      }
    }
  }
  outcome.process_recoverable = outcome.violations.empty();
  return outcome;
}

}  // namespace

ProcRecOutcome AnalyzeProcessRecoverability(const ProcessSchedule& schedule,
                                            const ConflictSpec& spec) {
  return Analyze(schedule, spec, /*committed_only=*/false);
}

ProcRecOutcome AnalyzeCommittedRecoverability(const ProcessSchedule& schedule,
                                              const ConflictSpec& spec) {
  return Analyze(schedule, spec, /*committed_only=*/true);
}

bool IsProcessRecoverable(const ProcessSchedule& schedule,
                          const ConflictSpec& spec) {
  return AnalyzeProcessRecoverability(schedule, spec).process_recoverable;
}

}  // namespace tpm
