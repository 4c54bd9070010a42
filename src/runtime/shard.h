#ifndef TPM_RUNTIME_SHARD_H_
#define TPM_RUNTIME_SHARD_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/virtual_clock.h"
#include "core/scheduler.h"
#include "log/recovery_log.h"
#include "runtime/submission_queue.h"

namespace tpm {

/// How shard workers advance.
enum class TickMode {
  /// Workers step only when the tick driver posts a round command
  /// (PostRound), and every round is: drain the submission queue in FIFO
  /// order, then one scheduling pass. All shard clocks advance in lockstep
  /// (tick t completes on every shard before tick t+1 starts anywhere)
  /// and each shard's execution is a deterministic function of its
  /// submission order — the mode tests replay and compare against solo
  /// schedulers.
  kLockstep,
  /// Workers loop as fast as the hardware allows, sleeping only when
  /// idle. Shard clocks drift freely relative to each other (they are
  /// per-shard time bases, never compared). The mode benches run in.
  kFreeRunning,
};

/// Durability of a shard's recovery log.
enum class ShardLogMode {
  kNone,    // no log — no durability, no Recover
  kMemory,  // in-memory WAL (tests, benches)
  kFile,    // file-backed WAL at <wal_dir>/shard-<index>.wal
};

/// One scheduler shard: an unmodified single-threaded
/// TransactionalProcessScheduler with its own VirtualClock and its own
/// recovery log, driven by a dedicated worker thread that is the
/// scheduler's sole owner (the scheduler's thread-affinity guard enforces
/// this). The shard never touches another shard's state; all cross-thread
/// traffic funnels through the bounded SubmissionQueue, one command
/// channel under one mutex, and published stats snapshots.
class RuntimeShard {
 public:
  struct Options {
    int index = 0;
    SchedulerOptions scheduler;  // `clock` is replaced by the shard clock
    size_t queue_capacity = 1024;
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
    TickMode mode = TickMode::kFreeRunning;
    ShardLogMode log_mode = ShardLogMode::kMemory;
    std::string wal_path;  // kFile only
  };

  explicit RuntimeShard(Options options);
  ~RuntimeShard();

  RuntimeShard(const RuntimeShard&) = delete;
  RuntimeShard& operator=(const RuntimeShard&) = delete;

  /// Opens the log and constructs the scheduler. Caller thread; call
  /// before any registration.
  Status Init();

  /// Setup-phase access (facade thread, before Start — and, once the
  /// worker has stopped, test inspection: Stop releases the scheduler's
  /// thread affinity).
  TransactionalProcessScheduler* scheduler() { return scheduler_.get(); }
  VirtualClock* clock() { return &clock_; }
  RecoveryLog* log() { return log_.get(); }
  int index() const { return options_.index; }

  /// Hands the scheduler to a fresh worker thread and starts it.
  void Start();

  /// Producer side (any thread): queue a submission under the shard's
  /// backpressure policy. Wakes the worker.
  Status EnqueueSubmission(Submission submission);

  /// Queues a closure the worker runs at the start of its next pass,
  /// before draining submissions — the cross-shard agent's channel for
  /// scheduler calls (submit a sub-process, resolve a held commit) that
  /// must execute on the owning worker thread. FIFO per shard; ops count
  /// as work (the shard is not idle while one is pending). Wakes the
  /// worker. The closure runs outside the shard mutex, so it may take the
  /// agent's lock; never post from the posting shard's own op (reentrant
  /// FIFO is fine, self-deadlock is not an issue since ops only append).
  void PostAgentOp(std::function<void()> op);

  /// Runs `fn` on the worker thread. PostCommand enqueues (one command at
  /// a time — the control plane is single-threaded); WaitCommandDone
  /// blocks until the worker finished it and returns its status. Used for
  /// lockstep rounds (PostRound) and for Recover, so every shard can
  /// replay its WAL concurrently.
  void PostCommand(std::function<Status()> fn);
  Status WaitCommandDone();

  /// Lockstep driver: posts one round as a command. The round returns the
  /// shard's sticky error without running a pass if one is set; otherwise
  /// it runs one pass (drain + admit, then one scheduling step) and
  /// returns the sticky error the pass may have recorded.
  void PostRound();

  /// Free-running mode: blocks until the shard has no queued submissions
  /// and its scheduler reports no remaining work (or the shard errored).
  Status WaitIdle();

  /// True iff no queued submissions and no remaining scheduler work.
  bool IsIdle();

  /// Last stats snapshot the worker published (end of each pass).
  SchedulerStats StatsSnapshot() const;

  /// Producer-side queue depth (approximate by nature — the worker may be
  /// draining concurrently).
  size_t QueueDepth() const { return queue_.size(); }

  /// Sticky shard error (a failed scheduling pass). Once set, the worker
  /// runs no further pass; commands still run.
  Status status() const;

  /// Closes the queue, stops the worker WITHOUT draining remaining work
  /// (kill semantics — Drain first for a clean finish), fails leftover
  /// queued submissions, joins, and releases the scheduler's thread
  /// affinity so the caller may inspect it. Idempotent.
  void Stop();

  bool started() const { return worker_.joinable() || stopped_; }

 private:
  void WorkerLoop();
  /// One pass: drain + admit queued submissions, then one scheduling pass
  /// if work remains. Returns the new has-work flag.
  bool RunOnePass(bool had_work);
  void RecordError(const Status& status);
  void PublishStats();

  Options options_;
  VirtualClock clock_;
  std::unique_ptr<RecoveryLog> log_;
  std::unique_ptr<TransactionalProcessScheduler> scheduler_;
  SubmissionQueue queue_;

  std::thread worker_;
  bool stopped_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_worker_;  // wakes the worker
  std::condition_variable cv_client_;  // wakes driver/waiters
  bool stop_requested_ = false;
  bool has_work_ = false;
  /// True while the worker runs a pass outside the lock. Idle checks must
  /// see it: mid-pass the queue is already drained but the admitted
  /// submissions may not have been stepped yet, so `!has_work_ &&
  /// queue_.empty()` alone would report idle too early.
  bool busy_ = false;
  std::deque<std::function<void()>> agent_ops_;
  std::function<Status()> command_;
  bool command_done_ = false;
  Status command_status_;
  Status error_;
  SchedulerStats stats_snapshot_;
};

}  // namespace tpm

#endif  // TPM_RUNTIME_SHARD_H_
