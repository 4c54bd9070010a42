#ifndef TPM_CORE_RECOVERABILITY_H_
#define TPM_CORE_RECOVERABILITY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/conflict.h"
#include "core/schedule.h"

namespace tpm {

/// A violation of process-recoverability.
struct ProcRecViolation {
  ActivityInstance earlier;  // a_{i_k}
  ActivityInstance later;    // a_{j_l}, conflicting, after earlier
  /// Which clause of Def. 11 is violated: 1 = commit order (C_i must
  /// precede C_j), 2 = order of the next non-compensatable activities.
  int clause = 0;
  std::string ToString() const;
};

/// Result of a process-recoverability analysis.
struct ProcRecOutcome {
  bool process_recoverable = false;
  std::vector<ProcRecViolation> violations;
};

/// Checks process-recoverability (Proc-REC, Def. 11): for each pair of
/// conflicting activities a_{i_k} <<_S a_{j_l},
///
///   1. C_i precedes C_j, and
///   2. the next non-compensatable activity of P_j following a_{j_l}
///      succeeds the next non-compensatable activity of P_i following
///      a_{i_k}.
///
/// Interpretation choices (documented in DESIGN.md):
/// * If C_j is absent (P_j did not commit), clause 1 is not violated; if
///   C_j is present but C_i absent, it is.
/// * Clause 2 binds only when both "next non-compensatable" activities
///   exist in the schedule; when P_i executes no further non-compensatable
///   activity, no recovery hazard from P_i's side arises and the clause is
///   vacuous.
/// * Aborted invocations are effect-free and induce no conflicts.
ProcRecOutcome AnalyzeProcessRecoverability(const ProcessSchedule& schedule,
                                            const ConflictSpec& spec);

/// Proc-REC of `CommittedProjection(schedule)`, read in place: the events
/// of processes that did not commit are skipped while indexing, so the
/// projection is never built. Clauses 1 and 2 compare positions only
/// relative to each other, which the projection preserves, so the
/// violations are the same, in the same order.
ProcRecOutcome AnalyzeCommittedRecoverability(const ProcessSchedule& schedule,
                                              const ConflictSpec& spec);

/// Convenience wrapper.
bool IsProcessRecoverable(const ProcessSchedule& schedule,
                          const ConflictSpec& spec);

}  // namespace tpm

#endif  // TPM_CORE_RECOVERABILITY_H_
