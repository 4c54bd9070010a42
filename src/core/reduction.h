#ifndef TPM_CORE_REDUCTION_H_
#define TPM_CORE_REDUCTION_H_

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/completed_schedule.h"
#include "core/conflict.h"
#include "core/schedule.h"
#include "core/serializability.h"

namespace tpm {

/// Outcome of applying the reduction rules of Def. 9 to a completed process
/// schedule.
struct ReductionOutcome {
  /// True iff the completed schedule can be transformed into a serial
  /// process schedule.
  bool reducible = false;
  /// The activity instances remaining after maximal application of the
  /// compensation and effect-free rules, in (residual) schedule order.
  std::vector<ActivityInstance> residual;
  /// When reducible: a serialization order of the processes.
  std::vector<ProcessId> serialization_order;
  /// When not reducible: a process cycle witnessing the failure
  /// (first == last).
  std::vector<ProcessId> cycle;
};

/// Applies the three transformation rules of Def. 9 to the *completed*
/// schedule `completed`:
///
/// 1. Commutativity rule — adjacent commuting activities may be swapped.
/// 2. Compensation rule — an adjacent pair (a, a^-1) may be removed.
/// 3. Effect-free rule — effect-free activities of processes that do not
///    commit in the original schedule may be removed.
///
/// Decision procedure (polynomial): aborted invocations of non-committed
/// processes and activities of effect-free services of non-committed
/// processes are removed; compensation pairs are cancelled whenever no
/// activity conflicting with the pair lies between them (non-conflicting
/// in-between activities can be commuted out of the way first) — iterated
/// to a fixpoint since each cancellation may unblock further ones; the
/// residual is reducible to a serial schedule iff its process-level
/// conflict graph is acyclic. The cancellation runs on a ReductionIndex
/// (core/reduction_index.h): a worklist over pairs that count their
/// conflicting blockers, and edges built from per-service accessor lists.
///
/// `committed_in_original` is the set of processes that committed in the
/// original (uncompleted) schedule S — rule 3 only applies to the others.
/// Aborted invocations are treated as globally non-conflicting: an aborted
/// local transaction leaves no effects, so by Def. 6 it commutes with
/// everything.
ReductionOutcome ReduceCompletedSchedule(
    const ProcessSchedule& completed, const ConflictSpec& spec,
    const std::set<ProcessId>& committed_in_original);

/// Exhaustive oracle for the same decision: explores the full rewrite
/// state space (memoized BFS over sequences) and reports whether a serial
/// schedule is reachable. Exponential; rejects inputs with more than
/// `max_tokens` residual activities. Used to validate the polynomial
/// procedure in tests.
Result<bool> IsReducibleExhaustive(
    const ProcessSchedule& completed, const ConflictSpec& spec,
    const std::set<ProcessId>& committed_in_original, size_t max_tokens = 12,
    size_t max_states = 2'000'000);

/// True iff `schedule` is reducible (RED, Def. 9): its completed schedule
/// can be transformed into a serial one.
Result<bool> IsRED(const ProcessSchedule& schedule, const ConflictSpec& spec);

/// Detailed variant of IsRED exposing the reduction outcome.
Result<ReductionOutcome> AnalyzeRED(const ProcessSchedule& schedule,
                                    const ConflictSpec& spec);

}  // namespace tpm

#endif  // TPM_CORE_REDUCTION_H_
