#ifndef TPM_LOG_FILE_BACKEND_H_
#define TPM_LOG_FILE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "log/storage_backend.h"

namespace tpm {

/// File-backed storage: the log that actually survives a process death.
///
/// On-disk format is a sequence of frames, each
///
///   [u32 payload_length (LE)] [u32 masked crc32c(payload) (LE)] [payload]
///
/// Appends are staged in memory and reach the file only at Sync(), which
/// writes the staged bytes and fsyncs — the explicit durability boundary.
/// Open() scans the file frame by frame; a trailing partial frame or a
/// frame whose CRC does not match (a torn write from a crash mid-sync) is
/// truncated away, restoring the longest valid prefix. Corruption *before*
/// the last valid frame is not silently repaired: it fails Open, since
/// dropping a middle record would violate the prefix-replay guarantee.
///
/// ReplaceAll (log compaction) uses write-new-then-rename: the replacement
/// is written to `path.tmp`, fsynced, and renamed over the log, so a crash
/// leaves either the complete old or the complete new log.
class FileStorageBackend : public StorageBackend {
 public:
  struct OpenStats {
    /// Valid records recovered from the file.
    size_t records_recovered = 0;
    /// Trailing bytes dropped because they formed a torn or corrupt tail.
    size_t torn_bytes_truncated = 0;
  };

  /// Opens (creating if absent) the log at `path`, recovering its valid
  /// record prefix and truncating any torn tail. A stale `path.tmp` from a
  /// compaction that crashed before the rename is removed.
  static Result<std::unique_ptr<FileStorageBackend>> Open(std::string path);

  ~FileStorageBackend() override;

  FileStorageBackend(const FileStorageBackend&) = delete;
  FileStorageBackend& operator=(const FileStorageBackend&) = delete;

  Status Append(std::string_view record) override;
  Status Sync() override;
  Status ReplaceAll(const std::vector<std::string>& records) override;
  const RecordArena& records() const override { return records_; }
  size_t durable_size() const override { return durable_.records; }
  void SimulateCrash() override;
  void SimulateCrashDuringSync() override;

  const std::string& path() const { return path_; }
  const OpenStats& open_stats() const { return open_stats_; }
  /// File offset of the durable prefix (what an fsync has confirmed).
  uint64_t synced_bytes() const { return synced_bytes_; }

  /// Encodes one record as a frame (exposed for tests that hand-craft or
  /// corrupt log files).
  static std::string EncodeFrame(std::string_view payload);

 private:
  FileStorageBackend(std::string path, int fd);

  std::string path_;
  int fd_ = -1;
  RecordArena records_;
  RecordArena::Mark durable_;
  /// Encoded frames staged by Append but not yet written + fsynced.
  std::string pending_;
  uint64_t synced_bytes_ = 0;
  OpenStats open_stats_;
};

}  // namespace tpm

#endif  // TPM_LOG_FILE_BACKEND_H_
