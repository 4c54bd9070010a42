#include "workload/schedule_generator.h"

#include "common/str_util.h"
#include "core/flex_structure.h"

namespace tpm {

Result<GeneratedSchedule> GenerateRandomSchedule(
    const RandomScheduleConfig& config, Rng* rng) {
  GeneratedSchedule result;

  // Service ids: activity j of process p uses service 1000*p + j; its
  // compensation uses 1000*p + 500 + j.
  // The events each process runs, in order (its primary path unless it
  // ends in a branch point).
  std::vector<std::vector<ScheduleEvent>> plans;
  for (int p = 1; p <= config.num_processes; ++p) {
    const ProcessId pid(p);
    std::vector<ScheduleEvent> plan;
    auto def = std::make_unique<ProcessDef>(StrCat("R", p));
    const int n_comp = static_cast<int>(
        rng->NextInRange(config.min_compensatable, config.max_compensatable));
    const int n_ret = static_cast<int>(
        rng->NextInRange(config.min_retriable, config.max_retriable));
    ActivityId prev;
    int index = 0;
    for (int i = 0; i < n_comp; ++i) {
      ++index;
      ActivityId id = def->AddActivity(
          StrCat("c", index), ActivityKind::kCompensatable,
          ServiceId(1000 * p + index), ServiceId(1000 * p + 500 + index));
      if (prev.valid()) TPM_RETURN_IF_ERROR(def->AddEdge(prev, id));
      prev = id;
      plan.push_back(ScheduleEvent::Activity({pid, id, false}));
    }
    ++index;
    ActivityId pivot = def->AddActivity(StrCat("p", index),
                                        ActivityKind::kPivot,
                                        ServiceId(1000 * p + index));
    if (prev.valid()) TPM_RETURN_IF_ERROR(def->AddEdge(prev, pivot));
    prev = pivot;
    plan.push_back(ScheduleEvent::Activity({pid, pivot, false}));
    // With a branch point, the retriable tail follows the preferred
    // alternative: pivot << alt_c << alt_p << tail ◁ pivot << fallback.
    bool fallback_taken = false;
    if (config.alternative_probability > 0 &&
        rng->NextBool(config.alternative_probability)) {
      const int base = index;
      ActivityId alt_c = def->AddActivity(
          StrCat("c", base + 1), ActivityKind::kCompensatable,
          ServiceId(1000 * p + base + 1), ServiceId(1000 * p + 500 + base + 1));
      ActivityId alt_p = def->AddActivity(StrCat("p", base + 2),
                                          ActivityKind::kPivot,
                                          ServiceId(1000 * p + base + 2));
      ActivityId fallback = def->AddActivity(StrCat("r", base + 3),
                                             ActivityKind::kRetriable,
                                             ServiceId(1000 * p + base + 3));
      index += 3;
      TPM_RETURN_IF_ERROR(def->AddEdge(pivot, alt_c, 0));
      TPM_RETURN_IF_ERROR(def->AddEdge(alt_c, alt_p));
      TPM_RETURN_IF_ERROR(def->AddEdge(pivot, fallback, 1));
      plan.push_back(ScheduleEvent::Activity({pid, alt_c, false}));
      fallback_taken = rng->NextBool(0.5);
      if (fallback_taken) {
        plan.push_back(ScheduleEvent::Activity({pid, alt_p, false},
                                               /*aborted_invocation=*/true));
        plan.push_back(ScheduleEvent::Activity({pid, alt_c, true}));
        plan.push_back(ScheduleEvent::Activity({pid, fallback, false}));
      } else {
        plan.push_back(ScheduleEvent::Activity({pid, alt_p, false}));
      }
      prev = alt_p;
    }
    for (int i = 0; i < n_ret; ++i) {
      ++index;
      ActivityId id = def->AddActivity(StrCat("r", index),
                                       ActivityKind::kRetriable,
                                       ServiceId(1000 * p + index));
      TPM_RETURN_IF_ERROR(def->AddEdge(prev, id));
      prev = id;
      if (!fallback_taken) {
        plan.push_back(ScheduleEvent::Activity({pid, id, false}));
      }
    }
    plans.push_back(std::move(plan));
    TPM_RETURN_IF_ERROR(def->Validate());
    TPM_RETURN_IF_ERROR(ValidateWellFormedFlex(*def));
    result.defs.push_back(std::move(def));
  }

  // Random conflicts across processes.
  for (int p = 1; p <= config.num_processes; ++p) {
    for (int q = p + 1; q <= config.num_processes; ++q) {
      const auto& dp = *result.defs[p - 1];
      const auto& dq = *result.defs[q - 1];
      for (const ActivityDecl& a : dp.activities()) {
        for (const ActivityDecl& b : dq.activities()) {
          if (rng->NextBool(config.conflict_density)) {
            result.spec.AddConflict(a.service, b.service);
          }
        }
      }
    }
  }

  if (config.effect_free_probability > 0) {
    for (const auto& def : result.defs) {
      for (const ActivityDecl& a : def->activities()) {
        if (rng->NextBool(config.effect_free_probability)) {
          result.spec.MarkEffectFree(a.service);
        }
      }
    }
  }

  // Random interleaving of the plans.
  for (int p = 1; p <= config.num_processes; ++p) {
    TPM_RETURN_IF_ERROR(
        result.schedule.AddProcess(ProcessId(p), result.defs[p - 1].get()));
  }
  std::vector<size_t> next_activity(config.num_processes, 0);
  std::vector<bool> done(config.num_processes, false);
  int remaining = config.num_processes;
  while (remaining > 0) {
    if (rng->NextBool(config.stop_probability)) break;
    // Pick a random process that still has activities to run.
    int candidate = static_cast<int>(rng->NextIndex(config.num_processes));
    while (done[candidate]) {
      candidate = (candidate + 1) % config.num_processes;
    }
    if (config.abort_probability > 0 &&
        rng->NextBool(config.abort_probability)) {
      TPM_RETURN_IF_ERROR(result.schedule.Append(
          ScheduleEvent::Abort(ProcessId(candidate + 1))));
      done[candidate] = true;
      --remaining;
      continue;
    }
    const std::vector<ScheduleEvent>& plan = plans[candidate];
    TPM_RETURN_IF_ERROR(
        result.schedule.Append(plan[next_activity[candidate]]));
    if (++next_activity[candidate] == plan.size()) {
      done[candidate] = true;
      --remaining;
      if (rng->NextBool(config.commit_probability)) {
        TPM_RETURN_IF_ERROR(result.schedule.Append(
            ScheduleEvent::Commit(ProcessId(candidate + 1))));
      }
    }
  }
  if (config.group_abort_probability > 0 &&
      rng->NextBool(config.group_abort_probability)) {
    std::vector<ProcessId> active = result.schedule.ActiveProcesses();
    if (!active.empty()) {
      TPM_RETURN_IF_ERROR(
          result.schedule.Append(ScheduleEvent::GroupAbort(std::move(active))));
    }
  }
  return result;
}

}  // namespace tpm
