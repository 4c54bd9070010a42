#ifndef TPM_RUNTIME_ELASTIC_MIGRATION_ENGINE_H_
#define TPM_RUNTIME_ELASTIC_MIGRATION_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/conflict.h"
#include "core/process.h"
#include "log/recovery_log.h"
#include "log/wal.h"
#include "runtime/elastic/elastic_options.h"
#include "runtime/shard.h"
#include "runtime/shard_router.h"
#include "subsystem/kv_subsystem.h"

namespace tpm {

/// One record of the migration WAL. Grammar (one record per line,
/// '|'-separated):
///   MBEGIN|<mid>|<component>|<from>|<to>   write-ahead of the migration
///   MCUT|<mid>|<pid_base>|<p1,p2,...>      component segment selected: the
///                                          source pids being moved, and the
///                                          pid range [pid_base, pid_base+n)
///                                          they renumber into on the target
///   MFLIP|<mid>                            DECISION: the import is durable
///                                          on the target; ownership flips
///   MABORT|<mid>                           migration abandoned, no flip
///   MEND|<mid>                             source strip durable; all done
struct MigrationRecord {
  enum class Kind { kBegin, kCut, kFlip, kAbort, kEnd };

  Kind kind = Kind::kBegin;
  int64_t mid = -1;
  int component = -1;  // kBegin
  int from = -1;       // kBegin
  int to = -1;         // kBegin
  int64_t pid_base = -1;            // kCut
  std::vector<int64_t> src_pids;    // kCut

  std::string Serialize() const;
  static Result<MigrationRecord> Parse(const std::string& line);
};

/// Quiesce-and-migrate of one conflict component between live shards.
///
/// Protocol (DESIGN.md §4k) — MBEGIN; close the admission gate for the
/// component (new submissions buffer against the target); drain the
/// source queue past a marker and wait until no active process on the
/// source touches the component; cut the component's segment out of the
/// source WAL, renumbered into a pid range reserved on the target (MCUT);
/// re-verify PRED + Proc-REC on the target's would-be merged history
/// offline; import the merged log on the target; MFLIP (the decision);
/// strip the segment from the source WAL; move the component's subsystem
/// registrations; flip the router remap and flush the buffered
/// submissions to the target; MEND.
///
/// Crash safety: MFLIP is the decision record. Recovery scan + fix-ups
/// restore component-on-exactly-one-shard — MCUT without MFLIP undoes the
/// (possibly applied) target import and aborts; MFLIP without MEND redoes
/// the source strip (the import durably preceded the flip) and completes.
///
/// Threading: Migrate runs on the control plane (one call at a time,
/// serialized under an internal mutex anyway). Producers interact through
/// AcquireRouteLock/ShouldBuffer/Buffer; shard workers through
/// MaybeIntercept (via the runtime's probe).
class MigrationEngine {
 public:
  struct Options {
    ShardLogMode log_mode = ShardLogMode::kMemory;
    std::string wal_path;  // kFile only
    CrashPointListener* crash_listener = nullptr;
    size_t buffer_capacity = 1024;
    TickMode mode = TickMode::kFreeRunning;
    /// Run the offline PRED + Proc-REC check on the merged target history
    /// before importing (mirrors ShardedRuntimeOptions::verify_recovery).
    bool verify = true;
    const ConflictSpec* spec = nullptr;
    ShardRouter* router = nullptr;
    std::vector<std::unique_ptr<RuntimeShard>>* shards = nullptr;
    /// Live spanning-process gate: migration is rejected once any span
    /// was begun (sub-definition names encode shard numbers, a staged
    /// limit documented in DESIGN.md).
    std::function<int64_t()> spans_begun;
    /// Resume a (possibly parked) target shard; fires the runtime's
    /// OnShardResumed hook.
    std::function<void(int shard)> resume_shard;
    /// Fired after a migration completes (MEND appended).
    std::function<void(int component, int from, int to)> on_migrated;
  };

  explicit MigrationEngine(Options options);
  ~MigrationEngine();

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  /// Opens the migration WAL and scans it: flipped migrations become
  /// routing overrides (see overrides()), incomplete ones queue fix-ups.
  /// Call before the shards exist.
  Status Init();

  /// Component -> owning shard, for every migration whose MFLIP is
  /// durable, applied in log order. The runtime feeds these into the
  /// router and its registration routing at Start.
  const std::map<int, int>& overrides() const { return overrides_; }

  /// Repairs the shard WALs of incomplete migrations (undo the target
  /// import of a cut-without-flip, redo the source strip of a
  /// flip-without-end) and closes their migration records. Call after the
  /// shards' logs are open but BEFORE their workers start — this touches
  /// shard logs from the control thread.
  Status ApplyCrashFixups();

  /// Per-component topology (parallel vectors indexed by component): the
  /// subsystems whose registrations move with the component, and the
  /// extra conflicts re-declared on the target scheduler.
  void SetTopology(
      std::vector<std::vector<Subsystem*>> subsystems_of_component,
      std::vector<std::vector<std::pair<ServiceId, ServiceId>>>
          conflicts_of_component);

  /// Moves `component` to shard `to`. Blocking; returns once the
  /// migration completed (MEND) or aborted cleanly. Lockstep runtimes
  /// must be idle. Fails without side effects on validation errors; a
  /// mid-protocol operational failure aborts back to the source; an
  /// injected crash leaves the engine sticky-failed (the next incarnation
  /// repairs via ApplyCrashFixups).
  Status Migrate(int component, int to);

  /// Producer-side admission gate. Producers hold the shared lock across
  /// route decision + enqueue/buffer; Migrate's flip takes it unique, so
  /// a submission is never pushed to a source whose ownership already
  /// flipped.
  std::shared_lock<std::shared_mutex> AcquireRouteLock() {
    return std::shared_lock<std::shared_mutex>(route_mu_);
  }

  /// True iff `component` is mid-migration (call under the route lock);
  /// the submission must go through Buffer instead of the shard queue.
  bool ShouldBuffer(int component) const {
    return migration_active_.load(std::memory_order_acquire) &&
           component == migrating_component_;
  }

  /// Buffers a submission of the migrating component; it is flushed to
  /// the target when the migration flips (or back to the source on
  /// abort). Returns the target shard — the ticket's best answer for
  /// where the process will land. ResourceExhausted when the bounded
  /// buffer is full.
  Result<int> Buffer(Submission submission);

  /// Shard-worker side (via the runtime's probe): learns def -> component
  /// for every submission, and intercepts (a) the engine's own null-def
  /// quiesce marker, (b) submissions of the migrating component already
  /// queued on the source, which are swept into the buffer. Returns true
  /// when the submission was consumed.
  bool MaybeIntercept(int shard, Submission& submission);

  /// Records def -> component (and the def pointer, for offline
  /// verification). Recover feeds the recovered defs through this so
  /// migration can classify WAL records whose processes predate the
  /// current incarnation.
  void LearnDef(const ProcessDef& def);

  /// No migration in flight (Drain's quiescence check).
  bool Quiet() const {
    return !migration_active_.load(std::memory_order_acquire);
  }

  /// Fails the promises of any buffered submissions (runtime Stop).
  void Shutdown();

  /// True once any migration ever started (or was recovered): spanning
  /// submissions are rejected from then on.
  bool ever_migrated() const {
    return ever_migrated_.load(std::memory_order_acquire);
  }

  Status status() const;

  int64_t migrations_started() const { return started_.load(); }
  int64_t migrations_completed() const { return completed_.load(); }
  /// Wall time spent in completed migrations, from the begin record to
  /// the return of Migrate (verification of the merged history included).
  int64_t migration_ns() const { return migration_ns_.load(); }
  int64_t migrations_aborted() const { return aborted_.load(); }

 private:
  class RenamingListener;

  struct ActiveMigration {
    int64_t mid = -1;
    int component = -1;
    int from = -1;
    int to = -1;
    /// Source-queue submissions of the component, swept by the worker.
    std::deque<Submission> swept;
    /// New submissions buffered by producers during the migration.
    std::deque<Submission> fresh;
    std::promise<void> marker_ack;
    bool marker_acked = false;
    int64_t pid_base = -1;
    int64_t pid_count = 0;
    /// Source pids of the moved segment (pre-renumbering) — the strip's
    /// filter set. Pids are never reused, so filtering by this set stays
    /// correct however many records other components append meanwhile.
    std::vector<int64_t> src_pids;
    bool imported = false;
  };

  /// Scan result for one incomplete migration.
  struct Fixup {
    enum class Kind { kAbortOnly, kUndoCut, kRedoStrip };
    Kind kind = Kind::kAbortOnly;
    MigrationRecord begin;
    MigrationRecord cut;  // kUndoCut / kRedoStrip
  };

  Status AppendRecord(const MigrationRecord& record);
  void StickyFail(const Status& status);
  /// Consults the crash listener at an explicit protocol site; on trigger
  /// records the simulated death (sticky) and returns true.
  bool HitSite(const char* site);

  /// Everything between the gate closing and MFLIP; failures here abort
  /// cleanly. On success the flip record is durable.
  Status RunPrepare(RuntimeShard* src, RuntimeShard* dst);
  /// Everything after MFLIP; failures here are sticky (the decision is
  /// durable, there is no going back).
  Status RunCommit(RuntimeShard* src, RuntimeShard* dst);
  /// Undoes a pre-flip failure: strips the target import if it happened
  /// and returns the buffered submissions to the source.
  void AbortMigration(RuntimeShard* src, RuntimeShard* dst);

  /// Waits for the quiesce marker to drain through the source queue, then
  /// polls until no active source process touches the component.
  Status Quiesce(RuntimeShard* src);

  int ComponentOfDefName(const std::string& name) const;
  const ProcessDef* DefOfName(const std::string& name) const;

  /// Offline re-verification of a would-be shard history: replays the
  /// records into a ProcessSchedule and checks PRED + Proc-REC (committed
  /// projection) under the union spec.
  Status VerifyRecords(const std::vector<SchedulerLogRecord>& records) const;

  /// Reads a shard's WAL on its worker thread (logs are worker-owned
  /// while the runtime runs).
  Status ReadShardRecords(RuntimeShard* shard,
                          std::vector<SchedulerLogRecord>* records);
  Status ReplaceShardRecords(RuntimeShard* shard,
                             std::vector<SchedulerLogRecord> records);
  /// Atomic read-modify-write variants, each a SINGLE worker command: the
  /// live shard keeps appending between any two commands, so a separate
  /// read + replace would silently drop those records (lost update).
  Status AppendShardRecords(RuntimeShard* shard,
                            std::vector<SchedulerLogRecord> records);
  Status StripShardRecords(RuntimeShard* shard, std::vector<int64_t> pids);

  /// Re-enqueues swept + fresh buffered submissions (FIFO preserved) onto
  /// `shard`, failing their promises if the queue is closed. Caller holds
  /// the unique route lock with migration_active_ already cleared.
  void FlushBuffersTo(RuntimeShard* shard);

  Options options_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<RenamingListener> renamer_;

  std::map<int, int> overrides_;
  std::vector<Fixup> fixups_;
  int64_t next_mid_ = 0;

  std::vector<std::vector<Subsystem*>> subsystems_of_component_;
  std::vector<std::vector<std::pair<ServiceId, ServiceId>>>
      conflicts_of_component_;

  /// Serializes Migrate calls (the control plane plus the controller).
  std::mutex op_mu_;
  /// Producer admission gate (see AcquireRouteLock).
  std::shared_mutex route_mu_;
  std::atomic<bool> migration_active_{false};
  int migrating_component_ = -1;  // written under unique route_mu_

  mutable std::mutex buffer_mu_;
  std::unique_ptr<ActiveMigration> active_;

  mutable std::shared_mutex defs_mu_;
  std::unordered_map<std::string, std::pair<const ProcessDef*, int>> defs_;

  mutable std::mutex error_mu_;
  Status error_;
  bool crashed_ = false;  // injected crash: skip the abort cleanup

  std::atomic<bool> ever_migrated_{false};
  std::atomic<int64_t> started_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> migration_ns_{0};
  std::atomic<int64_t> aborted_{0};
};

}  // namespace tpm

#endif  // TPM_RUNTIME_ELASTIC_MIGRATION_ENGINE_H_
