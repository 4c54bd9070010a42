#ifndef TPM_CORE_PRED_H_
#define TPM_CORE_PRED_H_

#include <string>

#include "common/status.h"
#include "core/conflict.h"
#include "core/reduction.h"
#include "core/schedule.h"

namespace tpm {

/// Result of a prefix-reducibility analysis.
struct PredOutcome {
  bool prefix_reducible = false;
  /// When not PRED: length (event count) of the shortest non-reducible
  /// prefix.
  size_t violating_prefix = 0;
  /// When not PRED: the irreducible process cycle of that prefix.
  std::vector<ProcessId> cycle;
  /// AnalyzePRED only: how many prefixes it reduced with their tail. The
  /// others S̃ did not change for (DESIGN.md §4l).
  size_t tail_trials = 0;

  std::string ToString() const;
};

/// Checks prefix-reducibility (PRED, Def. 10): every prefix of the schedule
/// must be reducible. RED itself is not prefix closed (§3.4), so PRED is
/// the criterion usable for dynamic scheduling; by Theorem 1 every PRED
/// schedule is serializable and process-recoverable.
///
/// One pass over the schedule (DESIGN.md §4l): the expanded prefix of S̃
/// only grows from one prefix to the next, so it is reduced incrementally
/// (CompletionBuilder feeding a ReductionIndex), and the tail — the merged
/// completions of the processes still active — changes only where an
/// event touched it. Only tokens on services that conflict with a service
/// of the schedule's definitions are indexed, and a prefix is reduced
/// with its tail only when that token sequence of S̃ changed. Reaches the
/// same decision as AnalyzePREDReference on every input.
Result<PredOutcome> AnalyzePRED(const ProcessSchedule& schedule,
                                const ConflictSpec& spec);

/// The definition executed literally: for every prefix, build S̃ from
/// scratch and run AnalyzeRED on it. O(n) prefixes × the cost of RED.
/// This is the oracle AnalyzePRED is cross-validated against in tests and
/// benchmarks (the way IsReducibleExhaustive backs the RED procedure), and
/// the fallback for schedules whose compensations do not alternate with
/// their originals (only constructible with legality checks off).
Result<PredOutcome> AnalyzePREDReference(const ProcessSchedule& schedule,
                                         const ConflictSpec& spec);

/// Convenience wrapper returning just the boolean.
Result<bool> IsPRED(const ProcessSchedule& schedule, const ConflictSpec& spec);

}  // namespace tpm

#endif  // TPM_CORE_PRED_H_
