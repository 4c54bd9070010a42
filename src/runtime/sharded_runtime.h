#ifndef TPM_RUNTIME_SHARDED_RUNTIME_H_
#define TPM_RUNTIME_SHARDED_RUNTIME_H_

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/conflict.h"
#include "core/process.h"
#include "core/scheduler.h"
#include "runtime/conflict_partition.h"
#include "runtime/cross_shard_agent.h"
#include "runtime/global_projection.h"
#include "runtime/runtime_stats.h"
#include "runtime/shard.h"
#include "runtime/shard_router.h"
#include "runtime/submission_queue.h"
#include "subsystem/weak_order.h"

namespace tpm {

/// Shard-tagged observer over the whole runtime. Callbacks are serialized
/// under one relay mutex (so observers may keep plain state) but arrive on
/// SHARD WORKER threads — an observer must not call back into the runtime
/// or any shard scheduler, and must outlive the runtime.
class RuntimeObserver {
 public:
  virtual ~RuntimeObserver() = default;
  virtual void OnActivityCommitted(int /*shard*/, ProcessId /*pid*/,
                                   ActivityId /*act*/, bool /*inverse*/) {}
  virtual void OnInvocationFailed(int /*shard*/, ProcessId /*pid*/,
                                  ActivityId /*act*/) {}
  virtual void OnAlternativeTaken(int /*shard*/, ProcessId /*pid*/,
                                  ActivityId /*branch_point*/,
                                  int /*group*/) {}
  virtual void OnProcessTerminated(int /*shard*/, ProcessId /*pid*/,
                                   ProcessOutcome /*outcome*/) {}
  /// A held sub-process of a spanning process durably voted "prepared" on
  /// `shard` (the shard-tagged relay of SchedulerObserver::OnCommitHeld).
  virtual void OnCommitHeld(int /*shard*/, ProcessId /*pid*/) {}
};

struct ShardedRuntimeOptions {
  /// Scheduler shards (worker threads). Components of the conflict graph
  /// are packed onto these; surplus shards idle.
  int num_shards = 1;
  /// Per-shard scheduler configuration. `clock` is ignored: every shard
  /// owns a private VirtualClock (the shard time base).
  SchedulerOptions scheduler;
  /// Bounded submission queue per shard, and what a full one does.
  size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Ignored: every worker admits each queued submission with
  /// Scheduler::Submit. Kept only because tpmbench/workloads.cc assigns
  /// it; the next change to the benchmark deletes that assignment and
  /// this field.
  bool batched_admission = true;
  /// Lockstep (deterministic, driven by Tick/Drain) or free-running
  /// (workers self-drive; Drain blocks until quiescence).
  TickMode mode = TickMode::kFreeRunning;
  /// Per-shard recovery log. kFile requires wal_dir; each shard owns
  /// <wal_dir>/shard-<i>.wal, and a restart with the same configuration
  /// recomputes the same partition, reuniting each WAL with its services.
  ShardLogMode log_mode = ShardLogMode::kMemory;
  std::string wal_dir;
  /// After Recover, re-verify each shard's recovery history: PRED on the
  /// full history and Proc-REC on its committed projection. With spanning
  /// processes, additionally PRED + Proc-REC on the GLOBAL committed
  /// projection (the per-shard histories merged by MergeGlobalProjection).
  bool verify_recovery = true;
  /// §3.6 composite order between the order-independent sub-processes of
  /// one spanning process: kWeak runs them in parallel, kStrong strictly
  /// one after the other's prepared vote.
  OrderMode span_order = OrderMode::kWeak;
  /// Fault injection over the coordinator WAL (sites
  /// "coordinator/append|sync|synced|decide"). The shard WALs keep their
  /// own listener via `scheduler`.
  CrashPointListener* coordinator_crash_listener = nullptr;
};

/// The sharded multi-threaded runtime: N unmodified single-threaded
/// schedulers — one per conflict-partition shard, each with its own WAL,
/// clock and worker thread — behind a thread-safe submission front-end.
///
/// Correctness story (DESIGN.md §4g): the partitioner puts every pair of
/// conflicting services on one shard, the router pins each process to the
/// shard owning its footprint, so no serialization edge, compensation
/// dependency or deadlock can ever span shards — each shard's schedule is
/// PRED and Proc-REC by the single scheduler's guarantees, and the union
/// of the shard histories is PRED and Proc-REC because interleavings
/// without cross conflicts reduce componentwise.
///
/// Lifecycle: configure (AddSubsystem / AddConflict / AddColocation /
/// AddObserver) → Start → Submit/Tick/Drain (or Recover first) → Stop →
/// inspect shard schedulers. The control plane (Start/Tick/Drain/Recover/
/// Stop) is single-threaded — one coordinating thread; Submit alone is
/// thread-safe and may be called from any number of threads concurrently.
class ShardedRuntime {
 public:
  explicit ShardedRuntime(ShardedRuntimeOptions options);
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Configuration phase (before Start). Subsystems must outlive the
  /// runtime; each subsystem's services are implicitly colocated (they
  /// share its store and lock table, and the owning shard's worker must
  /// be the only thread invoking it).
  Status AddSubsystem(Subsystem* subsystem);
  /// Extra conflict beyond the subsystem-derived ones (both services join
  /// one shard).
  Status AddConflict(ServiceId a, ServiceId b);
  /// Pins `group` to one shard even though no conflicts relate them —
  /// e.g. a tenant's services, so its processes' footprints stay local.
  Status AddColocation(std::vector<ServiceId> group);
  Status AddObserver(RuntimeObserver* observer);

  /// Builds the union conflict spec, computes and verifies the conflict
  /// partition, creates the shards (opening per-shard WALs), registers
  /// each subsystem with its owning shard's scheduler, and starts the
  /// workers.
  Status Start();

  bool started() const { return started_; }
  int num_shards() const { return options_.num_shards; }
  /// Valid after Start.
  const ConflictSpec& union_spec() const { return union_spec_; }
  const ConflictPartition& partition() const { return partition_; }
  const ShardRouter& router() const { return *router_; }

  /// Thread-safe submission. A definition whose footprint lives on one
  /// shard is queued there (the unchanged fast path); a spanning
  /// definition is handed to the cross-shard agent, which decomposes it
  /// and drives the distributed commit — the ticket's gsn identifies the
  /// spanning process (SpanningOutcome), and its pid future delivers the
  /// FIRST sub-process's admission. Errors: InvalidArgument (a spanning
  /// shape the splitter does not support — positioned admission error),
  /// NotFound (unregistered service), ResourceExhausted (kReject + full
  /// queue), Unavailable (not started / stopping).
  ///
  /// Lifetime contract: the caller retains ownership of *def and must keep
  /// it valid until the runtime is STOPPED — the shard scheduler stores
  /// the raw pointer for the life of the admitted process and its history,
  /// not merely until the queue drains.
  Result<SubmitTicket> Submit(const ProcessDef* def, int64_t param = 0);

  /// Lockstep only: drives `rounds` global tick rounds, each posted to
  /// every shard as a round command (every shard completes round t before
  /// any shard starts t+1 — the shard clocks advance in lockstep). Returns
  /// the first shard's sticky error, in shard order, after the round in
  /// which it appeared and on every later call.
  Status Tick(int64_t rounds = 1);

  /// Runs until every shard is idle (queue empty, scheduler out of work).
  /// Lockstep: drives tick rounds up to `max_rounds`. Free-running: blocks
  /// on the workers. Either way a shard's sticky error is returned. No
  /// concurrent Submit may race a Drain — quiescence would be a moving
  /// target.
  Status Drain(int64_t max_rounds = 1'000'000);

  /// Crash recovery. First the coordinator WAL is replayed (CrossShardAgent
  /// ::RecoverScan): every spanning process it references is re-split
  /// deterministically, and durably decided commits become force-commit
  /// directives. Then every shard worker replays its own WAL CONCURRENTLY
  /// (scheduler Recover: rebuild states, force-commit directed in-doubt
  /// votes, group abort of everything else in flight). Undecided spanning
  /// processes are then presumed aborted (durably, FinishRecovery). With
  /// verify_recovery, every shard worker then asserts PRED on its
  /// recovery history and Proc-REC on its committed projection, while
  /// the calling thread — with spanning processes present — verifies the
  /// GLOBAL merged projection PRED + Proc-REC (VerifyGlobalProjection); a
  /// shard's error is reported ahead of the global one. Call after Start
  /// on a runtime whose WAL files (and subsystems) survive from the
  /// crashed incarnation, before submitting new work.
  Status Recover(const std::map<std::string, const ProcessDef*>& defs_by_name);

  /// Stops all workers WITHOUT draining queued work (kill semantics; call
  /// Drain first for a clean finish) and fails leftover submissions.
  /// After Stop the shard schedulers are quiesced and released for
  /// inspection from the calling thread. Idempotent.
  Status Stop();

  /// Aggregated stats: per-shard snapshots plus their MergeFrom fan-in.
  /// Thread-safe (reads published snapshots, not live scheduler state).
  RuntimeStats Stats() const;

  /// Shard coordinates, for tests and post-Stop inspection. The scheduler
  /// pointer is only safe to USE from this thread before Start or after
  /// Stop (its own affinity guard enforces that).
  TransactionalProcessScheduler* shard_scheduler(int shard);
  RecoveryLog* shard_log(int shard);

  /// Per-shard producer-side queue depth snapshot (any thread, any
  /// configuration; approximate by nature).
  std::vector<size_t> QueueDepths() const;

  /// Terminal fate of the spanning process `gsn` (from its SubmitTicket).
  SpanOutcome SpanningOutcome(int64_t gsn) const;

  /// The cross-shard coordination agent. Valid after Start.
  CrossShardAgent* cross_shard_agent() { return agent_.get(); }

  /// The global committed-projection view (DESIGN.md §4h): the per-shard
  /// histories merged, with every spanning process reassembled into one
  /// global process. Call after Stop (the shard schedulers must be
  /// quiesced). Fails with Internal if a spanning process is
  /// half-committed — the cross-shard atomicity assertion.
  Result<ProcessSchedule> GlobalProjection();

 private:
  class ShardObserverRelay;

  /// Waits for every shard's posted command; returns the first error in
  /// shard order.
  Status WaitShardCommands();

  void RelayEvent(const std::function<void(RuntimeObserver*)>& fn);
  /// Forwarded by the relays to the agent OUTSIDE observer_mu_ (lock
  /// order: agent mutex after — never under — the relay mutex).
  void NotifyAgentCommitHeld(int shard, ProcessId pid);
  void NotifyAgentTerminated(int shard, ProcessId pid, ProcessOutcome outcome);

  ShardedRuntimeOptions options_;
  std::vector<Subsystem*> subsystems_;
  std::vector<std::pair<ServiceId, ServiceId>> extra_conflicts_;
  ColocationGroups colocations_;

  ConflictSpec union_spec_;
  ConflictPartition partition_;
  std::unique_ptr<ShardRouter> router_;
  std::vector<std::unique_ptr<RuntimeShard>> shards_;
  std::unique_ptr<CrossShardAgent> agent_;
  std::vector<std::unique_ptr<ShardObserverRelay>> relays_;

  // Lifecycle flags are read by Submit from arbitrary producer threads
  // while the control-plane thread runs Start/Stop; atomics keep those
  // reads racefree (the control plane itself stays single-threaded).
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  std::mutex observer_mu_;
  std::vector<RuntimeObserver*> observers_;

  std::atomic<int64_t> submissions_accepted_{0};
  std::atomic<int64_t> submissions_rejected_{0};
  // Written by Tick (control plane), read by Stats from any thread.
  std::atomic<int64_t> lockstep_rounds_{0};
};

}  // namespace tpm

#endif  // TPM_RUNTIME_SHARDED_RUNTIME_H_
