#ifndef TPM_CORE_SCHEDULE_H_
#define TPM_CORE_SCHEDULE_H_

#include <map>
#include <ranges>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/activity.h"
#include "core/conflict.h"
#include "core/execution_state.h"
#include "core/process.h"

namespace tpm {

/// Kind of event in a process schedule.
enum class EventType {
  kActivity,    // an activity invocation that terminated (commit or abort)
  kCommit,      // C_i — process commits
  kAbort,       // A_i — process aborts (individually)
  kGroupAbort,  // A(P_{n_1},...,P_{n_s}) — set-oriented abort (Def. 8 2b)
};

/// One event of a process schedule. A schedule is represented as the
/// sequence of events in the order they were observed; this is one
/// linearization of the partial order <<_S of Def. 7 — the induced partial
/// order (program order plus conflict order) is recovered by the analyses.
struct ScheduleEvent {
  EventType type = EventType::kActivity;

  /// kActivity: which occurrence.
  ActivityInstance act;
  /// kActivity: true if this invocation terminated with abort (e.g., a
  /// failed invocation a_i(j) of a retriable activity, Def. 3). Aborted
  /// invocations are effect-free.
  bool aborted_invocation = false;

  /// kCommit / kAbort: the process. (For kActivity this equals
  /// act.process.)
  ProcessId process;

  /// kGroupAbort: the aborted processes.
  std::vector<ProcessId> group;

  static ScheduleEvent Activity(ActivityInstance inst,
                                bool aborted_invocation = false);
  static ScheduleEvent Commit(ProcessId pid);
  static ScheduleEvent Abort(ProcessId pid);
  static ScheduleEvent GroupAbort(std::vector<ProcessId> pids);

  std::string ToString() const;
};

/// A process schedule S = (P_S, A_S, <<_S) of Def. 7, over a set of process
/// definitions. Events are appended in observation order; per-process legal
/// execution (Def. 7.1: respecting precedence and preference order) is
/// enforced on append.
class ProcessSchedule {
 public:
  ProcessSchedule() = default;

  /// Registers a process instance executing `def`. The definition must
  /// outlive the schedule and be validated.
  Status AddProcess(ProcessId pid, const ProcessDef* def);

  /// Appends an event, checking process-local legality:
  /// * an original activity may commit only if all its predecessors on the
  ///   active branch committed,
  /// * a compensation may only undo a committed compensatable activity,
  /// * terminal events must be unique per process.
  /// Legality checking can be bypassed (`enforce_legal = false`) to build
  /// deliberately malformed schedules in tests.
  Status Append(const ScheduleEvent& event, bool enforce_legal = true);

  const std::vector<ScheduleEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  /// Records that `pid`, a held sub-process of a cross-shard spanning
  /// process, cast its "prepared" vote now, i.e. after the events appended
  /// so far. A vote is not an event: no criterion reads it. The global
  /// projection uses it to merge a spanning process's later slices —
  /// submitted only after this vote — behind everything this shard did
  /// before it (DESIGN.md §4h).
  void MarkVote(ProcessId pid);

  /// Number of events that precede `pid`'s vote, or 0 if it has none.
  size_t VotePosition(ProcessId pid) const;

  /// The registered processes in pid order, as (pid, definition) pairs.
  auto processes() const {
    return states_ | std::views::transform([](const auto& entry) {
             return std::pair<ProcessId, const ProcessDef*>(
                 entry.first, &entry.second.def());
           });
  }
  const ProcessDef* DefOf(ProcessId pid) const;

  /// Execution state of a process as implied by the appended events.
  const ProcessExecutionState* StateOf(ProcessId pid) const;

  /// Process ids with no terminal event (active processes).
  std::vector<ProcessId> ActiveProcesses() const;

  /// True iff the process has a kCommit event.
  bool IsProcessCommitted(ProcessId pid) const;

  /// The schedule consisting of the first `n` events (same process set).
  ProcessSchedule Prefix(size_t n) const;

  /// Bounded-memory support (SchedulerOptions::reclaim_terminated):
  /// forgets a terminated process — its definition/state entries
  /// immediately, its events at the next Compact(). The schedule then no
  /// longer represents the full execution; callers own that trade-off.
  void ReleaseProcess(ProcessId pid);

  /// Erases the events of every released process. O(events), so callers
  /// batch releases and compact at epoch boundaries; each event is erased
  /// at most once, keeping the amortized cost per event constant.
  void Compact();

  /// Released processes whose events still await Compact().
  size_t pending_release_count() const { return released_.size(); }

  /// True if instances a (earlier) and b (later, by position) conflict under
  /// `spec`: different processes and conflicting services, honoring perfect
  /// commutativity (inverse instances conflict exactly like their
  /// originals).
  bool InstancesConflict(const ActivityInstance& a, const ActivityInstance& b,
                         const ConflictSpec& spec) const;

  /// The service an instance maps to (the original activity's service; the
  /// compensating instance uses the same service for conflict purposes
  /// under perfect commutativity).
  ServiceId ServiceOf(const ActivityInstance& inst) const;

  std::string ToString() const;

 private:
  std::vector<ScheduleEvent> events_;
  /// Each registered process's execution state, which carries its
  /// definition, held by value: an appended event costs one lookup, and a
  /// copy of the schedule owns its states.
  std::map<ProcessId, ProcessExecutionState> states_;
  /// Processes released but whose events are not yet compacted away.
  std::set<ProcessId> released_;
  /// MarkVote positions, kept valid across Compact().
  std::map<ProcessId, size_t> votes_;
};

/// The committed projection of a history: the events of exactly those
/// processes that reached commit (group-abort markers dropped).
///
/// Workloads whose processes hammer the SAME hot ADT state routinely have
/// aborted processes conflict-preceding later-committed ones. The
/// syntactic Proc-REC checker (Def. 11) does not reduce away compensated
/// work, so on such histories it would flag every such abort even when the
/// compensations were emitted perfectly. The meaningful split is: check
/// Proc-REC on the committed projection (commit order must agree with
/// conflict order among the survivors) and PRED on the FULL history (the
/// reduction-aware criterion that vets the compensations themselves).
/// Used by the integration/chaos suites; the sharded runtime's
/// post-recovery self-check reads the same projection in place
/// (AnalyzeCommittedRecoverability, core/recoverability.h).
ProcessSchedule CommittedProjection(const ProcessSchedule& schedule);

}  // namespace tpm

#endif  // TPM_CORE_SCHEDULE_H_
