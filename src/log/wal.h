#ifndef TPM_LOG_WAL_H_
#define TPM_LOG_WAL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "log/record_arena.h"
#include "log/storage_backend.h"

namespace tpm {

/// Crash-point site names the WAL reports to a CrashPointListener, in the
/// order they occur within one operation. A fault-injection sweep arms one
/// occurrence and asserts recovery from the induced loss.
inline constexpr const char* kWalCrashSiteAppend = "wal/append";
inline constexpr const char* kWalCrashSiteSync = "wal/sync";
inline constexpr const char* kWalCrashSiteSynced = "wal/synced";
inline constexpr const char* kWalCrashSiteReplace = "wal/replace";
inline constexpr const char* kWalCrashSiteReplaced = "wal/replaced";

/// Append-only write-ahead log over a StorageBackend, with an explicit
/// durability boundary.
///
/// Records are strings (serialization is the caller's concern), kept in a
/// RecordArena. In synchronous mode every successful Append is immediately
/// durable (outside a DeferSync scope); in asynchronous mode appends stay
/// volatile until Flush() — the usual WAL trade-off between commit latency
/// and loss window. The default backend is in-memory (simulated stable
/// storage); construct with a FileStorageBackend for a log that survives a
/// real process death.
///
/// Fault injection: an attached CrashPointListener is consulted before and
/// after each durability-relevant action. When it triggers, the WAL
/// simulates a crash at that instant — the pending action is lost, the
/// volatile tail is dropped, and every subsequent operation fails with
/// kUnavailable until Crash() is called (modeling the restart that reads
/// stable storage) or the backend is reopened from disk.
class Wal {
 public:
  explicit Wal(bool synchronous = true);
  Wal(std::unique_ptr<StorageBackend> backend, bool synchronous = true);

  /// Appends one record. Durable on return in synchronous mode, unless a
  /// DeferSync scope is open.
  Status Append(std::string_view record);

  /// Makes all appended records durable.
  Status Flush();

  /// Log compaction: atomically replaces the whole contents with `records`,
  /// durable as a unit — a crash at any point leaves either the complete
  /// old or the complete new contents.
  Status ReplaceAll(const std::vector<std::string>& records);

  Status Clear() { return ReplaceAll({}); }

  /// Simulates a crash-and-restart of the logging component: the unflushed
  /// tail is lost, durable records survive, and the log is usable again
  /// (an injected crash leaves it unusable until this is called).
  void Crash();

  /// All records, durable prefix first.
  const RecordArena& records() const { return backend_->records(); }
  size_t durable_size() const { return backend_->durable_size(); }
  size_t size() const { return backend_->size(); }
  bool synchronous() const { return synchronous_; }

  /// True after an injected crash, until Crash() restarts the log.
  bool crashed() const { return crashed_; }

  void SetCrashPointListener(CrashPointListener* listener) {
    listener_ = listener;
  }

  StorageBackend* backend() { return backend_.get(); }

  /// While alive, a synchronous log stages appends as an asynchronous one
  /// does: they become durable at the next Flush, which the holder places
  /// wherever its write-ahead rules need a boundary. Ending the scope
  /// restores per-append syncs; it does not flush.
  class DeferSync {
   public:
    explicit DeferSync(Wal* wal) : wal_(wal), was_(wal->sync_deferred_) {
      wal_->sync_deferred_ = true;
    }
    ~DeferSync() { wal_->sync_deferred_ = was_; }
    DeferSync(const DeferSync&) = delete;
    DeferSync& operator=(const DeferSync&) = delete;

   private:
    Wal* wal_;
    bool was_;
  };

 private:
  /// Consults the listener; on trigger performs the crash (`during_sync`
  /// selects the torn-tail variant) and returns true.
  bool Hit(const char* site, bool during_sync);
  Status SyncWithHooks();

  std::unique_ptr<StorageBackend> backend_;
  bool synchronous_;
  bool sync_deferred_ = false;
  bool crashed_ = false;
  CrashPointListener* listener_ = nullptr;
};

}  // namespace tpm

#endif  // TPM_LOG_WAL_H_
