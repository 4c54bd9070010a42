#ifndef TPM_CORE_SCHEDULER_H_
#define TPM_CORE_SCHEDULER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_containers.h"
#include "common/ids.h"
#include "common/status.h"
#include "common/thread_affinity.h"
#include "common/virtual_clock.h"
#include "core/admission.h"
#include "core/completion.h"
#include "core/conflict.h"
#include "core/execution_state.h"
#include "core/process.h"
#include "core/schedule.h"
#include "core/scheduler_options.h"
#include "core/serialization_graph.h"
#include "log/recovery_log.h"
#include "subsystem/kv_subsystem.h"
#include "subsystem/two_phase_commit.h"

namespace tpm {

/// Observer interface for scheduler events — tracing, metrics, UIs. All
/// callbacks default to no-ops.
///
/// Reentrancy: callbacks run synchronously in the middle of a scheduling
/// pass, while the scheduler's internal state (runtimes, history,
/// serialization graph) is mid-update. An observer must therefore not call
/// back into the scheduler — neither mutators (Submit, Step, Crash, ...)
/// nor accessors (history(), stats(), ...) — and must not destroy it.
/// Record what you need and inspect the scheduler after Step()/Run()
/// returns. Observers must outlive the scheduler.
class SchedulerObserver {
 public:
  virtual ~SchedulerObserver() = default;
  /// An activity (or, with `inverse`, a compensating activity) committed
  /// and became visible in the history.
  virtual void OnActivityCommitted(ProcessId /*pid*/, ActivityId /*act*/,
                                   bool /*inverse*/) {}
  /// A local transaction terminated with abort (failed invocation).
  virtual void OnInvocationFailed(ProcessId /*pid*/, ActivityId /*act*/) {}
  /// The process switched to the alternative `group` at `branch_point`
  /// (preference order ◁).
  virtual void OnAlternativeTaken(ProcessId /*pid*/,
                                  ActivityId /*branch_point*/,
                                  int /*group*/) {}
  /// The process began aborting (its completion will now execute).
  virtual void OnAbortStarted(ProcessId /*pid*/) {}
  /// The process reached a terminal state.
  virtual void OnProcessTerminated(ProcessId /*pid*/,
                                   ProcessOutcome /*outcome*/) {}
  /// A held sub-process (SubmitHeld) finished all its work and durably
  /// voted "prepared": every non-compensatable effect sits in the prepared
  /// state of its subsystem and the process now waits for the coordination
  /// agent's global commit/abort decision (ResolveHeldCommit).
  virtual void OnCommitHeld(ProcessId /*pid*/) {}
  /// A subsystem's circuit breaker changed state (observed once per
  /// scheduling pass — transitions within a pass coalesce/lag one pass).
  virtual void OnBreakerStateChange(SubsystemId /*subsystem*/,
                                    BreakerState /*from*/,
                                    BreakerState /*to*/) {}
  /// The process proactively degraded to the alternative `group` at
  /// `branch_point` (preference order ◁) because `avoided`'s breaker is
  /// open.
  virtual void OnDegradedBranch(ProcessId /*pid*/,
                                ActivityId /*branch_point*/, int /*group*/,
                                SubsystemId /*avoided*/) {}
};

/// The transactional process scheduler (§3): executes processes with
/// guaranteed termination on top of transactional subsystems, ensuring
/// serializability and process-recoverability of the emitted schedule via
/// the PRED criterion, and handling failures by alternative execution
/// paths, backward/forward recovery and (after a crash) group abort.
///
/// The class is layered: admission policy (which activity may run now)
/// lives behind the AdmissionGuard interface in core/admission.h, SGT state
/// lives in core/serialization_graph.h, and this class is the execution /
/// recovery engine that drives both. It exposes its state to the policy
/// layer by privately implementing the read-only SchedulerView.
///
/// Threading contract: the scheduler is SINGLE-THREADED. One thread owns
/// an instance at a time and makes every call — mutators and accessors
/// alike (accessors read state a concurrent mutator may be mid-update on).
/// The owner need not be the constructing thread: ownership binds to the
/// first thread that uses the instance, and a quiesced scheduler can be
/// handed to another thread via ReleaseThreadAffinity(). Every public
/// entry point asserts the contract through a ThreadAffinityGuard and
/// aborts on violation — catching accidental cross-thread use
/// deterministically, long before TSan could. Multi-core scaling composes
/// whole schedulers behind a partitioned front-end (src/runtime/) instead
/// of threading this class.
class TransactionalProcessScheduler : private SchedulerView {
 public:
  explicit TransactionalProcessScheduler(SchedulerOptions options = {},
                                         RecoveryLog* log = nullptr);

  TransactionalProcessScheduler(const TransactionalProcessScheduler&) = delete;
  TransactionalProcessScheduler& operator=(
      const TransactionalProcessScheduler&) = delete;

  /// Registers a subsystem; its services become invocable and their derived
  /// conflicts are added to the scheduler's conflict relation. Subsystems
  /// must outlive the scheduler.
  Status RegisterSubsystem(Subsystem* subsystem);

  /// Adds a conflict beyond those derived from read/write sets.
  void AddConflict(ServiceId a, ServiceId b);

  /// Registers an observer (must outlive the scheduler).
  void AddObserver(SchedulerObserver* observer) {
    CheckThread("AddObserver");
    if (observer != nullptr) observers_.push_back(observer);
  }

  const SchedulerOptions& options() const override { return options_; }
  const ConflictSpec& conflict_spec() const override { return spec_; }

  /// An explicit inter-process order constraint (the inter-process part of
  /// <<_S, Def. 7): the submitted process may start only after `activity`
  /// of `process` committed — e.g., Figure 1's "the BOM generated by the
  /// construction process provides the necessary input of the production
  /// process".
  struct ProcessDependency {
    ProcessId process;
    ActivityId activity;
  };

  /// Admits a process instance. The definition must be validated, have
  /// well-formed flex structure, and reference only registered services.
  /// `param` is forwarded to every service invocation of the process.
  /// The process stays dormant until all `dependencies` are met; if a
  /// dependency becomes unsatisfiable (its process terminates without the
  /// activity committed, or compensates it before the dependent started),
  /// the dependent process is aborted (it has not executed anything, so
  /// the abort is clean).
  Result<ProcessId> Submit(const ProcessDef* def, int64_t param = 0,
                           std::vector<ProcessDependency> dependencies = {});

  /// Admits a sub-process of a cross-shard spanning process under the
  /// held-commit protocol: this scheduler acts as a participant of a
  /// distributed 2PC whose coordinator is the cross-shard agent. Every
  /// non-compensatable activity is executed via InvokePrepared (Lemma 1's
  /// deferred commit, forced regardless of defer_mode) and kept prepared;
  /// when the process has executed all its work it durably logs a
  /// "prepared" vote (kCommitHeld records) and parks until
  /// ResolveHeldCommit delivers the global decision. Compensatable
  /// activities commit locally as usual — they stay globally abortable
  /// through compensation.
  Result<ProcessId> SubmitHeld(const ProcessDef* def, int64_t param = 0);

  /// Delivers the coordinator's decision for a held process. `commit`
  /// releases the prepared branches through the normal Lemma-1 2PC path
  /// and lets the process commit; otherwise the process aborts (prepared
  /// branches roll back invisibly, committed compensatables compensate).
  /// A process that already terminated (e.g. aborted before voting) is
  /// reported via NotFound; the caller treats that as already-resolved.
  Status ResolveHeldCommit(ProcessId pid, bool commit);

  /// External order constraint hook for the cross-shard agent: embeds the
  /// agent-imposed inter-shard order `before` << `after` into the local
  /// serialization graph, so SGT admission and the Def. 11 commit-wait
  /// respect it without this scheduler knowing about other shards. An
  /// order whose `before` already left the graph (pruned or reclaimed)
  /// is satisfied and adds nothing.
  Status AddExternalOrder(ProcessId before, ProcessId after);

  /// Whether `pid` is a node of the serialization graph. A terminated
  /// process leaves it once it has no predecessors left (pruning).
  bool InSerializationGraph(ProcessId pid) const;

  /// Whether any per-service emitter row names `pid`. Scans every row, so
  /// it is for tests and diagnostics, not for hot paths.
  bool InAnyEmitterRow(ProcessId pid) const;

  /// The read-only state the admission layer consumes (core/admission.h),
  /// for tests and diagnostics. Same single-thread contract as every
  /// accessor; views it hands out are invalidated by the next mutator.
  const SchedulerView& admission_view() const {
    CheckThread("admission_view");
    return *this;
  }

  /// Executes one scheduling pass over all active processes. Returns true
  /// while work remains.
  Result<bool> Step();

  /// Runs until all processes terminated (or `max_steps` passes elapsed).
  Status Run(int64_t max_steps = 1'000'000);

  /// The emitted process schedule (activities, commits, aborts) — the S the
  /// correctness criteria are evaluated on.
  const ProcessSchedule& history() const {
    CheckThread("history");
    return history_;
  }

  /// Per-process latency record (virtual-time ticks).
  struct ProcessLatency {
    ProcessId pid;
    int64_t submitted = 0;   // clock at Submit
    int64_t started = -1;    // clock of the first executed activity
    int64_t terminated = -1; // clock of the terminal event
    ProcessOutcome outcome = ProcessOutcome::kActive;
  };

  /// Latencies of all terminated processes, in termination order. Queueing
  /// delay = started - submitted; service time = terminated - started.
  const std::vector<ProcessLatency>& latencies() const {
    CheckThread("latencies");
    return latencies_;
  }

  ProcessOutcome OutcomeOf(ProcessId pid) const;

  const SchedulerStats& stats() const {
    CheckThread("stats");
    return stats_;
  }

  /// Detaches the single-thread ownership (see the class comment): the
  /// next thread to call any public entry point becomes the new owner.
  /// Only meaningful on a quiesced scheduler — the caller must provide the
  /// happens-before edge of the handoff (thread join, mutex, ...).
  void ReleaseThreadAffinity() const { affinity_.Release(); }

  /// Simulates a scheduler crash: all volatile state (runtimes, history,
  /// serialization graph) is lost. Subsystems and the recovery log survive.
  /// (A crash injected inside the log — Wal crash points — additionally
  /// surfaces as kUnavailable from Submit/Step/Run; call Wal::Crash or
  /// reopen the storage backend before recovering.)
  void Crash();

  /// Rebuilds process states from the recovery log and performs the group
  /// abort of all in-flight processes (Def. 8 2b): compensations first in
  /// global reverse order, then the forward recovery paths (Lemma 3). The
  /// executed recovery actions are emitted into a fresh history.
  /// `defs_by_name` resolves the definitions referenced by the log. The
  /// group abort runs in prepared waves (one log sync per wave), so a
  /// crash inside Recover is itself recovered exactly once by the next
  /// Recover.
  ///
  /// Tolerates the losses a crash can inflict on the log: a lost tail
  /// (asynchronous mode) may hide activities that committed in their
  /// subsystem — such orphaned forward effects are invisible here and are
  /// the price of asynchronous logging — and superseded write-ahead COMP
  /// intentions replay as duplicates, which are skipped and counted in
  /// stats().recovered_log_anomalies.
  /// Cross-shard recovery directives: sub-process definition names whose
  /// held (voted-prepared) branches must be force-committed during Recover
  /// because the coordinator log carries a durable global commit decision.
  /// Everything held but not listed here is presumed aborted.
  struct RecoverDirectives {
    std::set<std::string> force_commit;
  };

  Status Recover(const std::map<std::string, const ProcessDef*>& defs_by_name,
                 const RecoverDirectives* directives = nullptr);

  /// Log compaction: atomically rewrites the recovery log to the minimal
  /// set of records describing the current in-flight processes (terminated
  /// processes vanish — their effects are durable in the subsystems).
  /// Bounds the log, and hence recovery replay time, for long-running
  /// schedulers. Requires a recovery log.
  Status Checkpoint();

 private:
  struct PreparedBranch {
    ActivityId activity;
    Subsystem* subsystem = nullptr;
    TxId tx;
    int64_t return_value = 0;
  };

  /// What happens once a runtime's pending recovery/branch-switch steps
  /// have drained.
  enum class DrainAction {
    kNone,
    kAbortProcess,    // the pending steps were the completion C(P): abort
    kActivateGroup,   // branch switch: activate the next alternative
  };

  struct ProcessRuntime {
    ProcessId pid;
    const ProcessDef* def = nullptr;
    ProcessExecutionState state;
    FlatSet<ActivityId> ready;
    FlatMap<ActivityId, int> active_group;
    FlatMap<ActivityId, int> retries;
    std::vector<PreparedBranch> prepared;
    /// Compensation / recovery steps to execute with priority (front
    /// first). While non-empty the process executes only these.
    std::vector<CompletionStep> pending;
    DrainAction on_drain = DrainAction::kNone;
    ActivityId drain_branch_point;
    int drain_group = 0;
    int64_t param = 0;
    /// Unmet inter-process start dependencies (Def. 7 inter-process order).
    std::vector<ProcessDependency> dependencies;
    /// Virtual-clock tick until which the process is occupied by its
    /// currently running activity.
    int64_t busy_until = 0;
    /// Activities waiting out an open circuit breaker (-> park tick).
    /// Parked activities stay in `ready` but are not invoked; they resume
    /// when the breaker half-opens, fail over after park_timeout_ticks, or
    /// are dropped with their branch on a degraded switch.
    FlatMap<ActivityId, int64_t> parked;
    /// A 2PC commit decision for the prepared branches is logged but some
    /// participant was unreachable during phase two: the branches are in
    /// doubt and the process waits for RecoverInDoubt to resolve them
    /// (it must not execute, abort, or be victimized meanwhile — the
    /// decision is already made).
    bool release_in_doubt = false;
    /// Held-commit protocol (SubmitHeld): the process is a participant of
    /// a cross-shard 2PC. All non-compensatables are force-prepared and
    /// retained; after the last activity the process votes instead of
    /// committing.
    bool hold_commit = false;
    /// The prepared vote has been durably logged; the process is parked
    /// waiting for ResolveHeldCommit. Not locally abortable (a participant
    /// that voted "prepared" cannot unilaterally abort).
    bool commit_held = false;
    /// The coordinator decided commit: the prepared branches release
    /// through the normal machinery and the process must reach commit —
    /// it is no longer a deadlock victim candidate.
    bool decided_commit = false;
    /// True once the process executed (or prepared) its first activity —
    /// it then holds one of the concurrency slots.
    bool started = false;
    int64_t submitted_at = 0;
    int64_t started_at = -1;

    bool completing() const {
      return !pending.empty() || on_drain != DrainAction::kNone;
    }

    ProcessRuntime(ProcessId p, const ProcessDef* d)
        : pid(p), def(d), state(p, d) {}

    /// Re-initializes a pooled runtime for a new process. Every container
    /// is cleared in place, keeping its capacity — the steady-state
    /// admission path then allocates nothing.
    void Reset(ProcessId p, const ProcessDef* d) {
      pid = p;
      def = d;
      state.Reset(p, d);
      ready.clear();
      active_group.clear();
      retries.clear();
      prepared.clear();
      pending.clear();
      on_drain = DrainAction::kNone;
      drain_branch_point = ActivityId();
      drain_group = 0;
      param = 0;
      dependencies.clear();
      busy_until = 0;
      parked.clear();
      release_in_doubt = false;
      hold_commit = false;
      commit_held = false;
      decided_commit = false;
      started = false;
      submitted_at = 0;
      started_at = -1;
    }
  };

  // --- SchedulerView (the read-only face the admission layer consumes). ---
  const SerializationGraph& serialization_graph() const override {
    return sg_;
  }
  std::optional<ProcessView> FindProcess(ProcessId pid) const override;
  std::span<const ProcessId> EmittersOf(ServiceId service) const override;
  std::span<const ProcessId> ActiveOnService(ServiceId service) const override;

  static ProcessView ViewOf(const ProcessRuntime& rt) {
    return ProcessView{rt.pid, rt.def, &rt.state};
  }

  Result<Subsystem*> RouteService(ServiceId service) const;

  void CheckThread(const char* site) const {
    affinity_.CheckOrDie("TransactionalProcessScheduler", site);
  }

  /// The per-definition admission checks of Submit (validated,
  /// well-formed flex structure, every service routed), memoized per
  /// ProcessDef pointer. Only success is cached: a definition that fails
  /// routing now may pass after more subsystems register.
  Status ValidateDef(const ProcessDef* def);

  // Dense runtime table: slot pid.value() - 1 (pids are handed out
  // sequentially from 1; Recover re-creates the original pids).
  const ProcessRuntime* FindRuntime(ProcessId pid) const;
  ProcessRuntime* FindRuntime(ProcessId pid) {
    return const_cast<ProcessRuntime*>(std::as_const(*this).FindRuntime(pid));
  }
  void EmplaceRuntime(ProcessId pid, std::unique_ptr<ProcessRuntime> rt);

  /// A fresh runtime for `pid` — from the pool (reclaim_terminated) when
  /// one is available, else newly allocated.
  std::unique_ptr<ProcessRuntime> AcquireRuntime(ProcessId pid,
                                                 const ProcessDef* def);
  /// Epoch boundary of the reclaim protocol (start of Submit and Step):
  /// recycles every pruned terminated runtime into the pool and compacts
  /// the history once enough releases accumulated.
  void DrainReclaimables();

  bool IsPruned(ProcessId pid) const {
    const size_t slot = static_cast<size_t>(pid.value() - 1);
    return slot < pruned_.size() && pruned_[slot] != 0;
  }
  void MarkPruned(ProcessId pid);
  /// Drops `rt` from the sorted active index and from its footprint rows
  /// (no-op if absent).
  void DeactivatePid(const ProcessRuntime& rt);

  // Dense per-service emitter and footprint indexes (rows follow spec_'s
  // interning; each row is sorted ascending).
  using ServiceRows = std::vector<std::vector<ProcessId>>;
  void EnsureServiceRows();
  void AddToRow(ServiceRows& rows, ServiceId service, ProcessId pid);
  /// Drops `rt` from its activities' rows, the only ones that can name it.
  void DropFromRows(ServiceRows& rows, const ProcessRuntime& rt);
  void AddFootprint(const ProcessRuntime& rt);

  // Execution steps.
  Result<bool> TryExecuteProcess(ProcessRuntime& rt);
  Result<bool> MaybeVoteHeldCommit(ProcessRuntime& rt);
  /// The log records of the durable "prepared" vote.
  static std::vector<SchedulerLogRecord> VoteRecords(const ProcessRuntime& rt);
  /// `prepare`: the guard decided Lemma 1's deferred commit (kPrepare).
  Result<bool> ExecuteActivity(ProcessRuntime& rt, ActivityId act,
                               bool prepare);
  Result<bool> ExecuteCompletionStep(ProcessRuntime& rt);
  /// The invocation outcome ladder of every failed invocation: an
  /// unavailable subsystem counts as blocked by locks (false: no progress);
  /// an aborted local transaction runs `on_abort` (retry or failure) and
  /// counts as progress (true); anything else is an error.
  template <typename OnAbort>
  Result<bool> InvocationFailed(const Status& failure, OnAbort&& on_abort);
  /// Records an aborted (effect-free) invocation in the history.
  Status RecordFailedInvocation(ProcessId pid, ActivityId act);
  Status HandleInvocationAbort(ProcessRuntime& rt, ActivityId act);
  Status HandleActivityFailure(ProcessRuntime& rt, ActivityId act);
  /// Nearest committed ancestor of `act` with an untried alternative group
  /// (see HandleActivityFailure); with `avoid_open_breakers` the group must
  /// additionally route no activity to a subsystem whose breaker is open.
  struct AlternativeChoice {
    ActivityId branch_point;
    int group = 0;
  };
  std::optional<AlternativeChoice> FindAlternative(
      const ProcessRuntime& rt, ActivityId act,
      bool avoid_open_breakers) const;
  bool GroupAvoidsOpenBreakers(const ProcessRuntime& rt,
                               const std::vector<ActivityId>& group) const;
  /// `act` routes to a subsystem with an open breaker: degrade to a
  /// reachable ◁-alternative if one exists, else park the activity.
  Result<bool> ParkOrDegrade(ProcessRuntime& rt, ActivityId act,
                             Subsystem* subsystem);
  /// Once per pass: observer notifications for breaker transitions and
  /// aggregation of subsystem health counters into stats_.
  void PollSubsystemHealth();
  Status StartAbort(ProcessRuntime& rt);
  bool AbortedProcessLeavesNoTrace(const ProcessRuntime& rt) const;
  Status FinishProcess(ProcessRuntime& rt, bool committed);
  /// Def. 11 clause 1 (commit order): true, counted as a commit wait, while
  /// some serialization-graph predecessor of `rt` is still active.
  bool WaitsForCommitOrder(const ProcessRuntime& rt);
  Status ReleasePreparedIfUnblocked(ProcessRuntime& rt);
  static std::vector<CommitBranch> CommitBranchesOf(const ProcessRuntime& rt);
  /// Emits the prepared branches as committed (they become visible).
  Status EmitReleasedBranches(ProcessRuntime& rt);
  /// Re-drives a logged 2PC commit decision whose phase two found a
  /// participant unreachable, then emits the released branches. False while
  /// some participant is still unreachable.
  Result<bool> ResolveInDoubt(ProcessRuntime& rt);
  /// Emits a committed activity or inverse into the history and the
  /// process state. A forward activity's ACT record is appended here, after
  /// the fact, unless `write_ahead` says the caller logged it already (a
  /// recovery wave); an inverse's COMP record is always the caller's.
  Status EmitActivity(ProcessRuntime& rt, ActivityId act, bool inverse,
                      bool write_ahead = false);
  /// Cost model: `rt` is occupied for `service`'s configured duration.
  void OccupyFor(ProcessRuntime& rt, ServiceId service);
  /// History position of the latest original commit of (pid, act), or 0.
  size_t LatestOriginalPosition(ProcessId pid, ActivityId act) const;
  /// Write-ahead logging of a compensation: appends the COMP record and
  /// flushes, making the intention durable before the inverse is invoked.
  Status LogCompensationIntent(ProcessId pid, ActivityId activity);
  Result<bool> GateCompensation(ProcessRuntime& rt, ActivityId compensated);
  Status CompensateSubtree(ProcessRuntime& rt, ActivityId branch_point,
                           int next_group);
  /// Marks ready each successor of `committed` on its active branch whose
  /// active-branch predecessors have all committed.
  void RecomputeReadyFrom(ProcessRuntime& rt, ActivityId committed);
  void AddSerializationEdges(ProcessId pid,
                             const std::vector<ProcessId>& preds);
  /// Worklist pruning: seeds are the only nodes whose prunability can have
  /// changed since the last call (the invariant: every FinishProcess
  /// leaves the graph fully pruned, and edges added between calls point
  /// only toward active processes).
  void PruneSerializationGraph(std::vector<ProcessId> worklist);
  Status ResolveDeadlock();
  Status CertifyHistory();

  SchedulerOptions options_;
  RecoveryLog* log_;  // may be null (no durability)
  ConflictSpec spec_;
  std::map<ServiceId, Subsystem*> routing_;
  std::vector<Subsystem*> subsystems_;

  /// Slot pid.value() - 1; null until that pid is submitted (and, with
  /// reclaim_terminated, null again once the runtime was recycled).
  std::vector<std::unique_ptr<ProcessRuntime>> runtimes_;
  /// Active pids, sorted ascending — the index behind every "for each
  /// active process" scan (Step, deadlock resolution). Maintained at
  /// EmplaceRuntime/FinishProcess, rebuilt by Recover (replay flips
  /// outcomes without FinishProcess).
  std::vector<ProcessId> active_pids_;
  /// Dense flag per pid slot: terminated and serialization-graph
  /// bookkeeping reclaimed.
  std::vector<uint8_t> pruned_;
  /// reclaim_terminated: pruned pids awaiting recycling at the next epoch
  /// boundary, recycled runtime objects ready for reuse, and the dense
  /// outcome table answering OutcomeOf for reclaimed processes.
  std::vector<ProcessId> reclaim_queue_;
  std::vector<std::unique_ptr<ProcessRuntime>> runtime_pool_;
  std::vector<uint8_t> reclaimed_outcome_;
  /// (compensating pid, dependent pid) pairs already counted in the
  /// cascade statistics (the compensation gate re-evaluates every pass).
  std::set<std::pair<int64_t, int64_t>> cascade_counted_;
  ProcessSchedule history_;
  int64_t next_pid_ = 1;
  /// Definitions that already passed the admission checks (see
  /// ValidateDef). Keyed by pointer: the lifetime contract —
  /// definitions outlive their processes and are immutable once
  /// validated — is what makes the memoization sound.
  std::set<const ProcessDef*> validated_defs_;

  /// Serialization graph (SGT state) — dense slots, no per-query
  /// allocation on the reachability paths.
  SerializationGraph sg_;

  /// service dense index -> processes that emitted an instance of it
  /// (sorted ascending). Conflict partners come from spec_.PartnersOf.
  ServiceRows service_emitters_;
  /// service dense index -> active processes whose definition declares an
  /// activity on it (sorted ascending): the §3.5 completion pre-order
  /// reads the rows of a service's partners instead of the active set.
  /// Holds exactly the pids of active_pids_ and is maintained with it.
  ServiceRows service_footprint_;

  /// Per-protocol admission policy (owns the kSerial token / the
  /// kTwoPhaseLocking lock table).
  std::unique_ptr<AdmissionGuard> guard_;

  std::vector<ProcessLatency> latencies_;
  std::vector<SchedulerObserver*> observers_;
  TwoPhaseCommitCoordinator coordinator_;
  SchedulerStats stats_;
  /// Time base: options_.clock when provided (shared with subsystems /
  /// fault layers), else the private owned_clock_. Advances one tick per
  /// scheduling pass; subsystem-side waiting (latency, backoff) advances a
  /// shared clock further within a pass.
  VirtualClock owned_clock_;
  VirtualClock* clock_ = nullptr;
  /// Last breaker state observed per subsystems_ slot (transition
  /// detection for OnBreakerStateChange).
  std::vector<BreakerState> breaker_seen_;
  /// Set when some activity parked this pass: parking is waiting (for a
  /// cooldown measured on the clock), not deadlock.
  bool parked_this_pass_ = false;
  /// Monotone counter of StartAbort calls, used for progress detection.
  int64_t aborts_started_ = 0;
  /// Consecutive no-progress passes while a voted/decided held sub-process
  /// is waiting on its cross-shard coordinator (see kHeldStallPatience in
  /// ResolveDeadlock). Reset whenever a pass makes progress.
  int64_t held_stall_passes_ = 0;
  /// Set by deadlock resolution when every active process is completing
  /// and mutually blocked: lets exactly one blocked recovery step proceed.
  bool force_next_completion_ = false;
  /// Single-thread ownership detector (see the class comment); mutable
  /// state, so ownership can bind on a const accessor too.
  ThreadAffinityGuard affinity_;
  /// The process the force applies to. Deadlock resolution targets the
  /// Lemma-2-correct step — the pending inverse whose original sits latest
  /// in the history — so that forcing never crosses compensation pairs
  /// that could still be emitted in reverse order (e.g. when a peer's
  /// compensation is merely waiting out a repairable subsystem outage).
  ProcessId force_completion_target_;
};

}  // namespace tpm

#endif  // TPM_CORE_SCHEDULER_H_
