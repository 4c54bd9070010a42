#ifndef TPM_CORE_COMPLETION_H_
#define TPM_CORE_COMPLETION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/execution_state.h"

namespace tpm {

/// One step of a completion C(P): execute the compensating activity a^-1
/// (inverse == true) or the original (retriable) activity a.
struct CompletionStep {
  ActivityId activity;
  bool inverse = false;
  /// Scheduler bookkeeping, not part of the step's identity: true once the
  /// write-ahead COMP record for this inverse step is durable, so a retry
  /// of the invocation does not log a second intention.
  bool logged = false;

  friend bool operator==(const CompletionStep& a, const CompletionStep& b) {
    return a.activity == b.activity && a.inverse == b.inverse;
  }
};

/// The completion C(P_i) of a process (§3.1): the sequence of activities
/// that must be executed to recover the process, either backward
/// (compensations only, process in B-REC) or forward (local backward
/// recovery to the last state-determining element, then the retriable
/// activities of the lowest-priority alternative — the forward recovery
/// path).
struct Completion {
  RecoveryState state = RecoveryState::kBackwardRecoverable;
  /// Steps in execution order: for F-REC, all compensating steps precede
  /// all forward (retriable) steps.
  std::vector<CompletionStep> steps;

  /// Number of compensating steps (they form a prefix of `steps`).
  size_t num_backward_steps() const;

  std::string ToString() const;
};

/// The effective committed activities an abort of the process compensates,
/// in commit order: every compensatable committed after the last
/// effective non-compensatable (all of them in B-REC). Those before it are
/// quasi-committed (F-REC, Example 10) and stay. Compensatable-retriable
/// activities count as compensatable (footnote 2).
std::vector<ActivityId> CompensatedOnAbort(const ProcessExecutionState& state);

/// Computes C(P) for the given execution state (Def. of completion, §3.1):
///
/// * B-REC: compensate every effective-committed activity in reverse commit
///   order.
/// * F-REC: let d be the last effective-committed non-compensatable
///   activity (local state-determining element). Compensate, in reverse
///   commit order, every compensatable activity committed after d; then
///   append the guaranteed forward path from d: its lowest-priority
///   (all-retriable) successor alternative in topological order, or its sole
///   continuation when no alternatives exist.
///
/// Requires the process definition to have well-formed flex structure.
Result<Completion> ComputeCompletion(const ProcessExecutionState& state);

}  // namespace tpm

#endif  // TPM_CORE_COMPLETION_H_
