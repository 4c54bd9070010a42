#ifndef TPM_WORKLOAD_SCHEDULE_GENERATOR_H_
#define TPM_WORKLOAD_SCHEDULE_GENERATOR_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/conflict.h"
#include "core/process.h"
#include "core/schedule.h"

namespace tpm {

/// Parameters for random abstract schedules used in the theory sweeps
/// (Theorem 1 validation, reduction-procedure cross-checks).
struct RandomScheduleConfig {
  int num_processes = 2;
  /// Activities on the primary path of each process: compensatable prefix,
  /// one pivot, retriable tail.
  int min_compensatable = 1;
  int max_compensatable = 2;
  int min_retriable = 0;
  int max_retriable = 2;
  /// Probability that any given cross-process service pair conflicts.
  double conflict_density = 0.2;
  /// Probability that a process that finished all its activities gets a
  /// commit event (otherwise it stays active and is group-aborted by the
  /// completion).
  double commit_probability = 0.7;
  /// Probability per scheduling step that the schedule stops early,
  /// leaving the remaining processes active mid-flight.
  double stop_probability = 0.05;

  // The knobs below default to off; while off they draw nothing from the
  // RNG, so existing configurations generate the same schedules.

  /// Probability per scheduling step that the chosen process aborts
  /// individually (an A_i event) instead of running its next activity.
  double abort_probability = 0.0;
  /// Probability that the processes still active when the interleaving
  /// ends are aborted jointly by an explicit group-abort event.
  double group_abort_probability = 0.0;
  /// Probability that an activity's service is declared effect-free
  /// (Def. 1), exposing it to reduction rule 3.
  double effect_free_probability = 0.0;
  /// Probability that a process ends in a ◁ branch point: a preferred
  /// alternative (compensatable, then pivot) ◁ a retriable fallback. Half
  /// of those processes take the preferred branch; the other half see its
  /// pivot fail, compensate, and take the fallback.
  double alternative_probability = 0.0;
};

/// A generated world: process definitions (owned), the conflict relation,
/// and one random interleaving. Movable, not copyable (the schedule holds
/// pointers into the owned definitions).
struct GeneratedSchedule {
  std::vector<std::unique_ptr<ProcessDef>> defs;
  ConflictSpec spec;
  ProcessSchedule schedule;
};

/// Generates a random legal process schedule: each process executes its
/// primary path; the interleaving, conflicts, early stops and commit events
/// are random. All processes have well-formed flex structure.
Result<GeneratedSchedule> GenerateRandomSchedule(
    const RandomScheduleConfig& config, Rng* rng);

}  // namespace tpm

#endif  // TPM_WORKLOAD_SCHEDULE_GENERATOR_H_
