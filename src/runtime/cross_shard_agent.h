#ifndef TPM_RUNTIME_CROSS_SHARD_AGENT_H_
#define TPM_RUNTIME_CROSS_SHARD_AGENT_H_

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_containers.h"
#include "common/ids.h"
#include "common/status.h"
#include "core/process.h"
#include "core/scheduler.h"
#include "log/wal.h"
#include "runtime/global_projection.h"
#include "runtime/shard.h"
#include "runtime/shard_router.h"
#include "subsystem/weak_order.h"

namespace tpm {

/// Crash-point site names of the coordinator WAL, as reported to the
/// user's CrashPointListener. The first three are the generic WAL sites
/// renamed (so a sweep can target the coordinator log without also
/// crashing the shard WALs); "coordinator/decide" is an explicit site
/// consulted immediately BEFORE the commit/abort decision is logged — the
/// classic 2PC window where every participant has voted but no decision
/// record exists, which recovery must resolve by presumed abort.
inline constexpr const char* kCoordCrashSiteAppend = "coordinator/append";
inline constexpr const char* kCoordCrashSiteSync = "coordinator/sync";
inline constexpr const char* kCoordCrashSiteSynced = "coordinator/synced";
inline constexpr const char* kCoordCrashSiteDecide = "coordinator/decide";

/// Terminal (or not-yet-terminal) fate of a spanning process.
enum class SpanOutcome {
  kUnknown,    // no such global serial number
  kInFlight,   // submitted, no durable terminal decision applied yet
  kCommitted,  // decided commit, all sub-processes committed
  kAborted,    // decided abort (explicitly or by presumed abort)
};

/// The cross-shard coordination agent: owns every spanning process end to
/// end. It generalizes the paper's §2.3 coordination-agent idea one level
/// up — where CoordinationAgent makes a non-transactional application look
/// like a transactional subsystem, this agent makes a set of independent
/// scheduler shards look like one transactional process runtime:
///
///  * the ShardRouter decomposes a spanning definition into per-shard
///    sub-processes plus a cross-shard dependency skeleton (SplitPlan);
///  * the agent submits the sub-processes under the held-commit protocol
///    (TransactionalProcessScheduler::SubmitHeld) in skeleton order —
///    OrderMode::kWeak runs order-independent sub-processes in parallel,
///    OrderMode::kStrong strictly sequentially (§3.6 composite orders);
///  * inter-shard serialization order is relayed as external SGT edges
///    (AddExternalOrder): on each shard, spanning sub-processes are
///    ordered by their global serial number, so the composite order is
///    acyclic by construction;
///  * commit is a Lemma-1-style two-phase protocol with a SHARD as the
///    participant: a sub-process that finished its work durably votes
///    "prepared" (kCommitHeld records in the shard WAL) and parks; when
///    every trunk sub-process voted (and, with ◁ tails, the chosen tail
///    voted), the agent logs the decision write-ahead in its own
///    coordinator WAL and releases the participants; any pre-vote abort
///    decides global abort and resolves the others in reverse submission
///    order (Lemma 2);
///  * recovery: RecoverScan replays the coordinator WAL, deterministically
///    re-splits every spanning definition it references, and hands the
///    shard replays a force-commit directive for each durably decided
///    commit — everything else is presumed aborted (FinishRecovery logs
///    the presumed-abort decisions after the shard replays).
///
/// Threading: the agent is threadless. Its state lives behind one mutex;
/// shard events of held slices arrive from worker threads (handled inline
/// when free-running, queued in a mailbox and pumped deterministically by
/// the lockstep driver between rounds) — the termination of a pinned
/// process returns before the mutex — and all scheduler calls are posted to
/// the owning shard's worker via RuntimeShard::PostAgentOp (never made
/// while holding the agent mutex — a resolve can terminate a process
/// synchronously, which echoes back into the agent through the observer
/// relay). Lock order: agent mutex -> shard mutex (posting only appends).
class CrossShardAgent {
 public:
  struct Options {
    TickMode mode = TickMode::kFreeRunning;
    /// §3.6 composite order between order-independent sub-processes.
    OrderMode span_order = OrderMode::kWeak;
    ShardLogMode log_mode = ShardLogMode::kMemory;
    std::string wal_path;  // kFile only: <wal_dir>/coordinator.wal
    /// Fault injection over the coordinator WAL; sites arrive renamed
    /// ("coordinator/append|sync|synced") plus "coordinator/decide".
    CrashPointListener* crash_listener = nullptr;
  };

  /// `router` and `shards` must outlive the agent; `shards` is the
  /// runtime's shard table (the agent posts ops into it).
  CrossShardAgent(Options options, const ShardRouter* router,
                  std::vector<std::unique_ptr<RuntimeShard>>* shards);
  ~CrossShardAgent();

  CrossShardAgent(const CrossShardAgent&) = delete;
  CrossShardAgent& operator=(const CrossShardAgent&) = delete;

  /// Opens the coordinator WAL. Call before Begin/RecoverScan.
  Status Init();

  /// Takes ownership of a spanning process (facade thread, any number of
  /// concurrent callers): assigns the global serial number, logs SBEGIN
  /// write-ahead, splits the definition, and launches the skeleton. The
  /// ticket's shard/pid refer to the first sub-process in skeleton order;
  /// its gsn field identifies the spanning process for OutcomeOf.
  Result<SubmitTicket> Begin(const ProcessDef* def, int64_t param);

  /// Shard events, forwarded by the runtime's observer relay (worker
  /// threads). Only held slices (admitted by SubmitHeld) vote; a
  /// termination of any other process returns without taking the agent
  /// mutex.
  void OnCommitHeld(int shard, ProcessId pid);
  void OnProcessTerminated(int shard, ProcessId pid, ProcessOutcome outcome);

  /// Lockstep driver (facade thread): processes the queued shard events
  /// deterministically — stable order by shard index, FIFO within a
  /// shard. No-op when free-running (events are handled inline).
  void Pump();

  /// Spanning processes begun and not yet terminally logged (SEND). The
  /// runtime's Drain treats a positive count as "not idle": a spanning
  /// process parked on a remote shard's prepare is busy, not idle.
  int64_t InFlightCount() const;

  SpanOutcome OutcomeOf(int64_t gsn) const;

  /// Sticky coordinator failure (an injected crash or I/O error on the
  /// coordinator WAL). Once set the agent stops deciding; held
  /// sub-processes stay parked until recovery resolves them.
  Status status() const;

  int64_t spans_begun() const;
  int64_t spans_committed() const;
  int64_t spans_aborted() const;

  /// Everything the per-shard replays need from the coordinator log:
  /// the regenerated sub-definitions (agent-owned; merged into the
  /// defs-by-name map handed to each shard's Recover) and the
  /// force-commit directives for durably decided commits.
  struct SpanRecoveryPlan {
    std::map<std::string, const ProcessDef*> sub_defs;
    TransactionalProcessScheduler::RecoverDirectives directives;
  };

  /// Replays the coordinator WAL (facade thread, before the shard
  /// replays; the agent must not have live spans). Every SBEGIN is
  /// re-split deterministically from `defs_by_name` — the same splitter,
  /// the same name prefix, hence bit-identical sub-definitions.
  Result<SpanRecoveryPlan> RecoverScan(
      const std::map<std::string, const ProcessDef*>& defs_by_name);

  /// After the shard replays: logs the presumed-abort decision for every
  /// undecided spanning process, closes every unfinished one with SEND,
  /// and records the outcomes.
  Status FinishRecovery();

  /// Mapping the global projection needs: sub-definition name ->
  /// projection entry, covering every span this agent has seen (live,
  /// finished, and recovered).
  std::map<std::string, SpanSubProjection> ProjectionInfo() const;

  /// Runtime shutdown: fails the pending first-pid promises of spans
  /// whose first sub-process was never admitted (their posted ops were
  /// dropped with the workers).
  void Shutdown();

  /// Test access to the coordinator WAL (e.g. to inspect or corrupt it).
  Wal* wal() { return wal_.get(); }

 private:
  struct SubState {
    const SubProcessPlan* plan = nullptr;
    bool submitted = false;
    bool admitted = false;
    bool voted = false;
    bool terminated = false;
    bool committed = false;
    ProcessId pid;
  };

  struct SpanState {
    int64_t gsn = 0;
    const ProcessDef* original = nullptr;
    int64_t param = 0;
    SplitPlan plan;
    std::vector<SubState> trunk;  // parallel to plan.subs
    std::vector<SubState> tails;  // parallel to plan.tails
    int current_tail = -1;        // tail attempt in flight (-1: none yet)
    bool decided = false;
    bool commit = false;
    int decided_tail = -1;
    bool done = false;  // SEND logged
    bool recovered = false;
    /// (is_tail, index) in the order sub-processes were submitted —
    /// global abort resolves in reverse of this order (Lemma 2).
    std::vector<std::pair<bool, int>> submission_order;
    std::promise<Result<ProcessId>> first_pid;
    bool first_pid_set = false;
  };

  /// Where a shard-local pid belongs.
  struct SubRef {
    int64_t gsn = 0;
    bool is_tail = false;
    int index = 0;
  };

  struct Event {
    int shard = 0;
    bool vote = false;  // else: terminated
    ProcessId pid;
    ProcessOutcome outcome = ProcessOutcome::kActive;
  };

  /// Renames the generic WAL sites to coordinator/* before forwarding to
  /// the user listener, so a site-filtered sweep can target the
  /// coordinator log alone.
  class RenamingListener;

  // All handlers below run with mu_ held.
  SubState* FindSub(SpanState* st, bool is_tail, int index);
  SubState* FindSubByPid(int shard, ProcessId pid, SpanState** st_out,
                         SubRef* ref_out);
  void HandleEvent(const Event& event);
  void HandleVote(SpanState* st, const SubRef& ref);
  void HandleTerminated(SpanState* st, const SubRef& ref,
                        ProcessOutcome outcome);
  void HandleSubFailure(SpanState* st, const SubRef& ref);
  /// Submits every trunk sub-process whose skeleton predecessors voted
  /// (kWeak) or the next unsubmitted one after its predecessor voted
  /// (kStrong).
  void LaunchReady(SpanState* st);
  void SubmitSub(SpanState* st, bool is_tail, int index);
  void StartTailAttempt(SpanState* st, int k);
  void Decide(SpanState* st, bool commit, int tail_index);
  void MaybeFinish(SpanState* st);
  Status AppendRecord(const std::string& record);
  void StickyFail(const Status& status);
  void DeliverFirstPid(SpanState* st, Result<ProcessId> pid);

  // Runs on the owning shard's worker thread, never holding mu_ across
  // scheduler calls.
  void RunSubmitOp(int64_t gsn, bool is_tail, int index);
  void RunResolveOp(int shard, ProcessId pid, bool commit);

  Options options_;
  const ShardRouter* router_;
  std::vector<std::unique_ptr<RuntimeShard>>* shards_;

  std::unique_ptr<RenamingListener> renamer_;
  std::unique_ptr<Wal> wal_;  // null with ShardLogMode::kNone

  /// Per shard: pids of the held slices admitted there and not yet
  /// terminated. Each set is touched only by its shard's worker thread —
  /// inserted by RunSubmitOp right after SubmitHeld, erased by
  /// OnProcessTerminated — so it needs no lock. Recovery leaves it alone:
  /// the slices live at a crash keep their pids through the shard replay,
  /// which terminates them, and the agent then ignores their events
  /// (RecoverScan cleared by_pid_).
  std::vector<FlatSet<ProcessId>> held_;

  mutable std::mutex mu_;
  Status error_;
  int64_t next_gsn_ = 1;
  std::map<int64_t, std::unique_ptr<SpanState>> spans_;
  /// (shard, pid) -> sub, for event dispatch.
  std::map<std::pair<int, int64_t>, SubRef> by_pid_;
  /// Per shard: live spanning sub-processes (gsn, pid) — the source of
  /// the gsn-order external SGT edges issued on admission.
  std::vector<std::vector<std::pair<int64_t, ProcessId>>> live_;
  std::vector<Event> mailbox_;
  int64_t in_flight_ = 0;
  int64_t spans_begun_ = 0;
  int64_t spans_committed_ = 0;
  int64_t spans_aborted_ = 0;
};

}  // namespace tpm

#endif  // TPM_RUNTIME_CROSS_SHARD_AGENT_H_
