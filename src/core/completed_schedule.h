#ifndef TPM_CORE_COMPLETED_SCHEDULE_H_
#define TPM_CORE_COMPLETED_SCHEDULE_H_

#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
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
/// followed by the group-abort tail of the processes still active.
/// CompleteSchedule is `Add` over every event plus `Finish`; the one-pass
/// PRED check also keeps the tail (`SyncTail`, `Tail`) after every event.
///
/// The commit position of each original activity is maintained as events
/// arrive. The kept tail changes only where an event touched it: the
/// completion of a process is looked up again when that process gets an
/// event, and its steps leave the tail when it terminates. Completions are
/// memoised by what they depend on (`MemoKey`), so processes of one
/// definition that reach the same state share one computation.
class CompletionBuilder {
 public:
  /// Which completion steps the kept tail holds, by the step's service.
  using TailFilter = std::function<bool(ServiceId)>;

  /// How one `SyncTail` changed the kept tail. `removed` (in the old tail's
  /// order) and `added` (in the new one's) are what is left of each touched
  /// process's steps once the steps it kept at either end are trimmed.
  struct TailChange {
    std::vector<TailStep> removed;
    /// `removed` were the old tail's first steps.
    bool removed_head = true;
    std::vector<TailStep> added;
  };

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

  /// Brings the kept tail up to date with `event`, the event just passed
  /// to `Add` (the tail is S̃'s only if every `Add` was followed by this
  /// call, with the same `in_tail`): recomputes the completion of each
  /// process the event touched and left active, and drops the steps of
  /// each process it terminated. The tail keeps the steps whose service
  /// `in_tail` accepts. Fails where appending a recomputed completion to
  /// `expanded()` would.
  Status SyncTail(const ScheduleEvent& event, const TailFilter& in_tail,
                  TailChange* change);

  /// The kept tail, in the order `Finish` would append it (`TailBefore`).
  std::vector<TailStep> Tail() const;

  /// Appends the group-abort tail (Def. 8 2b) and returns S̃.
  Result<ProcessSchedule> Finish() &&;

 private:
  /// Where a step sits in a merged group-abort tail.
  struct TailKey {
    bool forward = false;
    /// Backward steps: the position of the original in `expanded_`.
    size_t position = 0;
    /// Orders the forward steps of different processes, which Def. 8 3(d)
    /// leaves free: the process's place in the aborted group. The kept
    /// tail uses the pid, the order of `Finish`'s group of active pids.
    int64_t rank = 0;
    /// The step's index in its process's completion.
    size_t index = 0;
  };
  /// The merge order: every backward step before every forward step
  /// (Lemma 3); backward steps by descending position of their original
  /// (Lemma 2); forward steps by rank, then by completion order (3b).
  struct TailBefore {
    bool operator()(const TailKey& a, const TailKey& b) const;
  };
  struct KeptStep {
    TailKey key;
    TailStep step;
    bool operator<(const KeptStep& other) const {
      return TailBefore()(key, other.key);
    }
  };
  /// What a completion depends on: the process's execution state minus its
  /// pid. That is its definition, its `committed_order()` with whether
  /// each entry is compensated now, and its outcome (DESIGN.md §4l).
  struct MemoKey {
    const ProcessDef* def = nullptr;
    ProcessOutcome outcome = ProcessOutcome::kActive;
    std::vector<std::pair<ActivityId, bool>> commits;
    bool operator==(const MemoKey& other) const = default;
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& key) const;
  };
  /// The completion of a key, whether its steps append legally, and each
  /// step's service.
  struct Memo {
    Status status;
    Completion completion;
    std::vector<ServiceId> services;
  };
  struct ProcState {
    /// Bumped whenever an event changes the process's execution state.
    uint64_t version = 0;
    /// The memoised completion as of `cached_version`.
    uint64_t cached_version = 0;
    const Memo* memo = nullptr;
    /// Position in `expanded_` of the latest commit of each original
    /// activity, by activity index.
    std::vector<size_t> commit_pos;
    /// Its steps in the kept tail, in tail order.
    std::vector<KeptStep> kept;
  };
  using Members = std::vector<std::pair<ProcessId, ProcState*>>;

  // The memo entry of `execution`'s key, computed on a miss.
  const Memo& Memoised(const ProcessExecutionState& execution);
  // Refreshes the cached completion of `pid` if the process changed since.
  Status Refresh(ProcessId pid, ProcState* state);
  // The steps of `pid`'s refreshed completion whose service `keep`
  // accepts, keyed with `rank` and in tail order.
  std::vector<KeptStep> Keyed(ProcessId pid, int64_t rank,
                              const ProcState& state,
                              const TailFilter& keep) const;
  // Merges the completions of `members`, ranked in `members` order.
  Result<std::vector<TailStep>> Merge(const Members& members);
  Status ExpandAbort(const std::vector<ProcessId>& pids);
  Status AppendExpanded(const ScheduleEvent& event, bool enforce_legal);

  ProcessSchedule expanded_;
  std::set<ProcessId> active_;
  std::unordered_map<ProcessId, ProcState> procs_;
  /// Completions by key; `probe_` is the key being looked up.
  std::unordered_map<MemoKey, Memo, MemoKeyHash> memo_;
  MemoKey probe_;
  std::map<TailKey, TailStep, TailBefore> tail_;
};

}  // namespace tpm

#endif  // TPM_CORE_COMPLETED_SCHEDULE_H_
