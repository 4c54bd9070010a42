#ifndef TPM_CORE_COMPLETED_SCHEDULE_H_
#define TPM_CORE_COMPLETED_SCHEDULE_H_

#include <map>
#include <set>
#include <vector>

#include "common/status.h"
#include "core/completion.h"
#include "core/schedule.h"

namespace tpm {

/// Builds the completed process schedule S̃ of S (Def. 8):
///
/// 1. All active processes are aborted jointly: a group abort
///    A(P_{n_1},...,P_{n_s}) is appended at the end of S (Def. 8 2b).
/// 2. Every abort activity A_i (individual or within a group abort) is
///    replaced by the activities of the completion C(P_i) followed by C_i
///    (Def. 8 2c: the abort is changed into a commit once the completion is
///    executed).
/// 3. The ordering constraints of Def. 8 3(a)-(f) are satisfied
///    constructively:
///    * original orders are preserved (3a) — completions are expanded in
///      place;
///    * intra-completion order is preserved (3b) and completions follow the
///      process's original activities, preceding C_i (3c);
///    * within a group abort, the completions are merged into one total
///      order (satisfying 3d): all compensating steps first, globally in
///      *reverse order of their original activities' schedule positions*
///      (the only order admissible by Lemma 2), then all forward
///      (retriable) steps — placing compensations before the retriable
///      steps of other completions as required by Lemma 3;
///    * completions are inserted at the abort's position in the sequence,
///      so activities ordered after the abort in S follow the completion
///      (3e) and completions of earlier aborts precede completions of later
///      aborts (3f).
///
/// Unlike the expanded schedule of the traditional unified theory, S̃ may
/// contain activities that never appeared in S (the forward recovery path
/// of processes in F-REC), which is why correctness reasoning must always
/// use S̃ (§3.5).
Result<ProcessSchedule> CompleteSchedule(const ProcessSchedule& schedule);

/// One step of a group-abort tail: the activity instance to execute and the
/// service it maps to (the original's service for an inverse).
struct TailStep {
  ActivityInstance act;
  ServiceId service;
};

/// Builds S̃ one event of S at a time. Def. 8 3(e)/(f) expand every abort
/// in place from the events before it, so the expanded prefix only grows:
/// after the first n events of S, S̃ of that prefix is `expanded()`
/// followed by the group-abort tail of the processes still active
/// (`ActiveTail()`). CompleteSchedule is `Add` over every event plus
/// `Finish`; the one-pass PRED check reads the tail after every event.
///
/// The commit position of each original activity is maintained as events
/// arrive, and each active process's completion is cached until that
/// process gets its next event.
class CompletionBuilder {
 public:
  /// Registers the processes of `schedule` (not its events).
  explicit CompletionBuilder(const ProcessSchedule& schedule);

  /// Appends the next event of S: activities and commits verbatim, an
  /// abort or group abort as the merged completion of its processes
  /// followed by their commits.
  Status Add(const ScheduleEvent& event);

  /// The expanded prefix: S̃ of the events added so far, minus the tail.
  const ProcessSchedule& expanded() const { return expanded_; }

  /// Processes without a terminal event, ascending.
  const std::set<ProcessId>& active() const { return active_; }

  /// The completion steps of every active process, merged in the order
  /// `Finish` would append them (Lemma 2 backward order, then forward
  /// steps). Fails where appending them to `expanded()` would.
  Result<std::vector<TailStep>> ActiveTail();

  /// Appends the group-abort tail (Def. 8 2b) and returns S̃.
  Result<ProcessSchedule> Finish() &&;

 private:
  struct ProcState {
    /// Bumped whenever an event changes the process's execution state.
    uint64_t version = 0;
    /// The completion as of `cached_version`, whether it appends legally,
    /// and for each step its service and the position of its original
    /// (backward steps).
    uint64_t cached_version = 0;
    bool cached = false;
    Status status;
    Completion completion;
    std::vector<ServiceId> services;
    std::vector<size_t> positions;
  };
  using Members = std::vector<std::pair<ProcessId, ProcState*>>;

  // Refreshes the cached completion of `pid` if the process changed since.
  Status Refresh(ProcessId pid, ProcState* state);
  // Merges the completions of `members` (Lemma 2: backward steps in
  // reverse order of their originals' positions; Lemma 3: then forward
  // steps in `members` order).
  Result<std::vector<TailStep>> Merge(const Members& members);
  Status ExpandAbort(const std::vector<ProcessId>& pids);
  Status AppendExpanded(const ScheduleEvent& event, bool enforce_legal);

  ProcessSchedule expanded_;
  std::set<ProcessId> active_;
  std::map<ProcessId, ProcState> procs_;
  /// The active processes that changed their execution state at least
  /// once; the others have empty completions.
  std::map<ProcessId, ProcState*> started_;
  /// Position in `expanded_` of the latest commit of each original
  /// activity.
  std::map<ActivityInstance, size_t> commit_pos_;
};

}  // namespace tpm

#endif  // TPM_CORE_COMPLETED_SCHEDULE_H_
