#ifndef TPM_LOG_STORAGE_BACKEND_H_
#define TPM_LOG_STORAGE_BACKEND_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "log/record_arena.h"

namespace tpm {

/// Observer of WAL crash points, used for deterministic fault injection.
/// The WAL calls OnCrashPoint(site) immediately before each
/// durability-relevant action (append, sync, compaction swap, ...).
/// Returning true simulates a process death at that instant: the pending
/// action does not take effect, the volatile tail is lost per the backend's
/// durability semantics, and every subsequent log operation fails with
/// kUnavailable until the log is restarted (Wal::Crash) or reopened from
/// stable storage.
class CrashPointListener {
 public:
  virtual ~CrashPointListener() = default;
  virtual bool OnCrashPoint(const char* site) = 0;
};

/// Stable storage under the WAL. Implementations must guarantee:
///
///  * Append stages a record that may stay volatile until Sync();
///  * after Sync() returns OK, every staged record survives a crash;
///  * ReplaceAll is atomic — a crash at any point leaves either the
///    complete old contents or the complete new contents, never a
///    truncated mixture;
///  * loss from a crash is always a suffix of the append order (the
///    recovery correctness argument relies on replaying a prefix).
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Stages one record; volatile until Sync().
  virtual Status Append(std::string_view record) = 0;

  /// Durability boundary (fsync for file-backed storage).
  virtual Status Sync() = 0;

  /// Atomically replaces the entire contents with `records`, durable as a
  /// unit (build-then-swap / write-new-file-then-rename).
  virtual Status ReplaceAll(const std::vector<std::string>& records) = 0;

  /// All records in append order: durable prefix first, then the volatile
  /// tail.
  virtual const RecordArena& records() const = 0;

  /// Number of records guaranteed to survive a crash.
  virtual size_t durable_size() const = 0;

  size_t size() const { return records().size(); }

  /// Simulates a crash at the storage layer: the volatile tail is lost,
  /// durable records survive. The backend stays usable (it models the
  /// restarted process reading the same stable storage).
  virtual void SimulateCrash() = 0;

  /// Simulates a crash in the middle of a Sync(): in addition to losing
  /// the volatile tail, a file-backed implementation may leave a torn
  /// (partially written) record on stable storage, which the next Open()
  /// must detect and truncate. Defaults to SimulateCrash().
  virtual void SimulateCrashDuringSync() { SimulateCrash(); }
};

}  // namespace tpm

#endif  // TPM_LOG_STORAGE_BACKEND_H_
