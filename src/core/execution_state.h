#ifndef TPM_CORE_EXECUTION_STATE_H_
#define TPM_CORE_EXECUTION_STATE_H_

#include <vector>

#include "common/flat_containers.h"
#include "common/ids.h"
#include "common/status.h"
#include "core/activity.h"
#include "core/process.h"

namespace tpm {

/// Termination status of a process within a schedule.
enum class ProcessOutcome {
  kActive,     // still running (no terminal event yet)
  kCommitted,  // C_i observed
  kAborted,    // A_i observed (individually or via group abort)
};

/// Recovery state of a process (§3.1): backward-recoverable until its
/// state-determining activity committed, forward-recoverable afterwards.
enum class RecoveryState {
  kBackwardRecoverable,  // B-REC
  kForwardRecoverable,   // F-REC
};

/// Tracks the execution progress of one process instance inside a schedule:
/// which activities committed (in order), which were compensated, and the
/// derived recovery state. This is the input to completion computation
/// (completion.h) and to the online scheduler.
class ProcessExecutionState {
 public:
  ProcessExecutionState(ProcessId pid, const ProcessDef* def)
      : pid_(pid), def_(def) {}

  /// Re-initializes for a new process, keeping the containers' capacity —
  /// the scheduler's runtime pool recycles states without reallocating.
  void Reset(ProcessId pid, const ProcessDef* def) {
    pid_ = pid;
    def_ = def;
    committed_order_.clear();
    committed_.clear();
    compensated_.clear();
    outcome_ = ProcessOutcome::kActive;
  }

  ProcessId pid() const { return pid_; }
  const ProcessDef& def() const { return *def_; }

  /// Records the commit of original activity `a`.
  Status RecordCommit(ActivityId a);

  /// Checks that committing original activity `a` now is legal: all its
  /// predecessors committed, and every earlier-preference sibling branch
  /// resolved (failed or compensated) — the alternative execution
  /// semantics of Def. 5.
  Status CheckCommitLegal(ActivityId a) const;

  /// Records the execution of the compensating activity a^-1 (which undoes
  /// a previously committed `a`).
  Status RecordCompensation(ActivityId a);

  /// Records a terminal event.
  void RecordCommitProcess() { outcome_ = ProcessOutcome::kCommitted; }
  void RecordAbortProcess() { outcome_ = ProcessOutcome::kAborted; }

  ProcessOutcome outcome() const { return outcome_; }
  bool IsActive() const { return outcome_ == ProcessOutcome::kActive; }

  /// Committed original activities in commit order (including later
  /// compensated ones).
  const std::vector<ActivityId>& committed_order() const {
    return committed_order_;
  }

  bool IsCommitted(ActivityId a) const {
    return committed_.count(a) > 0;
  }
  bool IsCompensated(ActivityId a) const {
    return compensated_.count(a) > 0;
  }

  /// Committed-and-not-compensated activities, in commit order. These are
  /// the activities whose effects are currently in place.
  std::vector<ActivityId> EffectiveCommitted() const;

  /// B-REC until a non-compensatable activity is among the effective
  /// committed activities, F-REC afterwards (§3.1).
  RecoveryState recovery_state() const;

  /// The last (most recent) effective-committed non-compensatable activity:
  /// the local state-determining element s_{i_k} the process would roll back
  /// to on abort. Error if the process is in B-REC.
  Result<ActivityId> LastStateDetermining() const;

 private:
  ProcessId pid_;
  const ProcessDef* def_;
  std::vector<ActivityId> committed_order_;
  FlatSet<ActivityId> committed_;
  FlatSet<ActivityId> compensated_;
  ProcessOutcome outcome_ = ProcessOutcome::kActive;
};

}  // namespace tpm

#endif  // TPM_CORE_EXECUTION_STATE_H_
