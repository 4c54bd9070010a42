#ifndef TPM_CORE_ADMISSION_H_
#define TPM_CORE_ADMISSION_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "core/conflict.h"
#include "core/execution_state.h"
#include "core/process.h"
#include "core/scheduler_options.h"
#include "core/serialization_graph.h"

namespace tpm {

/// Outcome of an admission check for executing an activity now.
enum class AdmissionDecision {
  kAdmit,  // execute (or prepare) the activity in this pass
  kDefer,  // re-evaluate on a later pass
  kFail,   // admitting would create an unresolvable conflict cycle
};

/// Read-only view of the scheduler state an admission policy may consult.
/// Implemented by TransactionalProcessScheduler; guards must not retain
/// ProcessView instances across calls (the underlying runtimes mutate).
class SchedulerView {
 public:
  struct ProcessView {
    ProcessId pid;
    const ProcessDef* def = nullptr;
    const ProcessExecutionState* state = nullptr;
  };

  virtual ~SchedulerView() = default;

  virtual const SchedulerOptions& options() const = 0;
  virtual const ConflictSpec& conflict_spec() const = 0;
  virtual const SerializationGraph& serialization_graph() const = 0;

  /// View of a known (active or terminated, not-yet-pruned) process.
  virtual std::optional<ProcessView> FindProcess(ProcessId pid) const = 0;

  /// True iff `pid` emitted an instance of `service` (and its conflict
  /// footprint has not been reclaimed yet).
  virtual bool HasEmitted(ProcessId pid, ServiceId service) const = 0;

  /// Invokes fn for every process that emitted an instance of `service`,
  /// in ascending pid order.
  virtual void ForEachEmitter(
      ServiceId service, const std::function<void(ProcessId)>& fn) const = 0;

  /// Invokes fn for every ACTIVE process whose definition declares an
  /// activity on `service` (its service footprint), in ascending pid
  /// order. Compensations count as `service` (perfect commutativity), so
  /// every process whose remainder could conflict with a service lies in
  /// the footprint rows of that service's conflict partners.
  virtual void ForEachActiveOnService(
      ServiceId service, const std::function<void(ProcessId)>& fn) const = 0;
};

// ---------------------------------------------------------------------------
// Shared policy predicates (§3.5 guard conditions). These are used both by
// the PRED admission guard and by the execution engine (completion
// pre-ordering, Lemma 1 release, deferred-commit detection), so they live
// here as free functions over the read-only view. All returned pid vectors
// are sorted and duplicate-free.

/// Processes (!= self) that emitted an activity conflicting with `service` —
/// the conflict-order predecessors an execution of `service` would acquire.
std::vector<ProcessId> ConflictingPredecessors(const SchedulerView& view,
                                               ProcessId self,
                                               ServiceId service);

/// Could `other` still produce an activity conflicting with `service`? Its
/// remainder consists of not-yet-committed activities (regular execution,
/// re-execution after compensation, or the forward recovery path of its
/// completion) and — when `include_compensations` — the future compensations
/// of its effective committed compensatables (same service under perfect
/// commutativity).
bool RemainderConflicts(const SchedulerView& view,
                        const SchedulerView::ProcessView& other,
                        ServiceId service, bool include_compensations = true);

/// Active processes (!= self) whose potential completion could conflict with
/// `service` (the §3.5 virtual-serialization-edge targets). Only the
/// footprint rows of `service`'s conflict partners are candidates, so the
/// cost is O(|PartnersOf(service)| + candidates), not O(active set).
std::vector<ProcessId> VirtualCompletionTargets(const SchedulerView& view,
                                                ProcessId self,
                                                ServiceId service);

/// Does some activity `emitter` already executed conflict with an activity
/// `rt` still has ahead of it (uncommitted, or a future compensation of a
/// committed compensatable)? `exclude` is the activity being admitted right
/// now — its direct conflicts are Lemma 1's business.
bool EmittedConflictsWithRemainder(const SchedulerView& view,
                                   ProcessId emitter,
                                   const SchedulerView::ProcessView& rt,
                                   ActivityId exclude);

/// Example 10: the blocker must be in F-REC (its pre-pivot activities are
/// quasi-committed: compensation is no longer available), and none of its
/// remaining activities — uncommitted originals or compensations of
/// committed compensatables — may conflict with any of the requester's
/// services.
bool QuasiCommitAdmissible(const SchedulerView& view,
                           const SchedulerView::ProcessView& blocker,
                           const SchedulerView::ProcessView& requester);

/// The still-active conflict-order predecessors that block a
/// non-compensatable activity `act` of `rt` under Lemma 1 (quasi-commit
/// admissible blockers are excluded when the optimization is on).
std::vector<ProcessId> ActiveBlockers(const SchedulerView& view,
                                      const SchedulerView::ProcessView& rt,
                                      ActivityId act);

/// True iff some active process is strictly reachable from `pid` in the
/// serialization graph — i.e. a cycle through `pid` could still dissolve by
/// that process aborting.
bool ActiveProcessReachableFrom(const SchedulerView& view, ProcessId pid);

// ---------------------------------------------------------------------------

/// Per-protocol admission policy. The guard owns the protocol's private
/// scheduling state (the kSerial execution token, the kTwoPhaseLocking lock
/// table) and consumes everything else through the read-only SchedulerView;
/// the execution engine drives it through the lifecycle hooks below.
class AdmissionGuard {
 public:
  virtual ~AdmissionGuard() = default;

  /// Decides whether original activity `act` of `rt` may execute now.
  virtual AdmissionDecision Admit(const SchedulerView::ProcessView& rt,
                                  ActivityId act) = 0;

  /// The engine is about to invoke `service` on behalf of `pid` (this is
  /// where locks / the serial token are taken).
  virtual void OnExecute(ProcessId pid, ServiceId service) {
    (void)pid;
    (void)service;
  }

  /// `pid` reached a terminal state (locks / the serial token are released).
  virtual void OnProcessTerminated(ProcessId pid) { (void)pid; }

  /// Drops all protocol state (scheduler crash).
  virtual void Reset() {}
};

/// Creates the guard for view.options().protocol. `stats` outlives the
/// guard and records policy-side counters (forced executions).
std::unique_ptr<AdmissionGuard> MakeAdmissionGuard(const SchedulerView& view,
                                                   SchedulerStats* stats);

}  // namespace tpm

#endif  // TPM_CORE_ADMISSION_H_
