#include "log/file_backend.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "log/wal.h"

namespace tpm {
namespace {

/// Unique file path per test, removed on destruction.
class TempLogPath {
 public:
  explicit TempLogPath(const std::string& tag) {
    path_ = ::testing::TempDir() + "tpm_file_backend_" + tag + "_" +
            StrCat(::getpid()) + ".log";
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~TempLogPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

using Lines = std::vector<std::string>;

/// Every record held by `records`, in order.
Lines Contents(const RecordArena& records) {
  return Lines(records.begin(), records.end());
}

TEST(FileStorageBackendTest, RoundTripsAcrossReopen) {
  TempLogPath path("roundtrip");
  {
    auto backend = FileStorageBackend::Open(path.get());
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    ASSERT_TRUE((*backend)->Append("alpha").ok());
    ASSERT_TRUE((*backend)->Append("beta|with|separators").ok());
    ASSERT_TRUE((*backend)->Sync().ok());
    ASSERT_TRUE((*backend)->Append("gamma").ok());  // staged, never synced
  }
  auto reopened = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(reopened.ok());
  // Only the synced prefix survives the (simulated) process death.
  ASSERT_EQ((*reopened)->records().size(), 2u);
  EXPECT_EQ(Contents((*reopened)->records()),
            (Lines{"alpha", "beta|with|separators"}));
  EXPECT_EQ((*reopened)->durable_size(), 2u);
  EXPECT_EQ((*reopened)->open_stats().records_recovered, 2u);
}

TEST(FileStorageBackendTest, EmptyAndMissingFilesOpenClean) {
  TempLogPath path("empty");
  auto backend = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ((*backend)->records().size(), 0u);
  EXPECT_EQ((*backend)->durable_size(), 0u);
}

TEST(FileStorageBackendTest, TornTailTruncatedOnOpen) {
  TempLogPath path("torn");
  {
    auto backend = FileStorageBackend::Open(path.get());
    ASSERT_TRUE(backend.ok());
    ASSERT_TRUE((*backend)->Append("first").ok());
    ASSERT_TRUE((*backend)->Sync().ok());
  }
  // Simulate a crash mid-write: a partial frame after the valid record.
  std::string bytes = ReadFileBytes(path.get());
  std::string torn = FileStorageBackend::EncodeFrame("second-interrupted");
  torn.resize(torn.size() / 2);
  WriteFileBytes(path.get(), bytes + torn);

  auto reopened = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->records().size(), 1u);
  EXPECT_EQ(Contents((*reopened)->records()), Lines{"first"});
  EXPECT_EQ((*reopened)->open_stats().torn_bytes_truncated, torn.size());
  // The torn bytes are physically gone: a fresh append then reopen yields
  // exactly [first, third].
  ASSERT_TRUE((*reopened)->Append("third").ok());
  ASSERT_TRUE((*reopened)->Sync().ok());
  auto again = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(again.ok());
  ASSERT_EQ((*again)->records().size(), 2u);
  EXPECT_EQ(Contents((*again)->records()), (Lines{"first", "third"}));
  EXPECT_EQ((*again)->open_stats().torn_bytes_truncated, 0u);
}

TEST(FileStorageBackendTest, CorruptTailFrameRejectedByCrc) {
  TempLogPath path("crc_tail");
  {
    auto backend = FileStorageBackend::Open(path.get());
    ASSERT_TRUE(backend.ok());
    ASSERT_TRUE((*backend)->Append("keep-me").ok());
    ASSERT_TRUE((*backend)->Append("corrupt-me").ok());
    ASSERT_TRUE((*backend)->Sync().ok());
  }
  // Flip one payload byte of the last frame.
  std::string bytes = ReadFileBytes(path.get());
  bytes.back() ^= 0x40;
  WriteFileBytes(path.get(), bytes);

  auto reopened = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ((*reopened)->records().size(), 1u);
  EXPECT_EQ(Contents((*reopened)->records()), Lines{"keep-me"});
  EXPECT_GT((*reopened)->open_stats().torn_bytes_truncated, 0u);
}

TEST(FileStorageBackendTest, MidFileCorruptionFailsOpen) {
  TempLogPath path("crc_mid");
  {
    auto backend = FileStorageBackend::Open(path.get());
    ASSERT_TRUE(backend.ok());
    ASSERT_TRUE((*backend)->Append("first-record").ok());
    ASSERT_TRUE((*backend)->Append("second-record").ok());
    ASSERT_TRUE((*backend)->Sync().ok());
  }
  // Corrupt a byte inside the FIRST frame's payload: dropping a middle
  // record would break prefix replay, so Open must refuse.
  std::string bytes = ReadFileBytes(path.get());
  bytes[9] ^= 0x01;  // first payload byte of frame 0
  WriteFileBytes(path.get(), bytes);

  auto reopened = FileStorageBackend::Open(path.get());
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsInvalidArgument())
      << reopened.status().ToString();
}

TEST(FileStorageBackendTest, ReplaceAllSurvivesReopenAndDropsOldContents) {
  TempLogPath path("compact");
  {
    auto backend = FileStorageBackend::Open(path.get());
    ASSERT_TRUE(backend.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*backend)->Append(StrCat("old-", i)).ok());
    }
    ASSERT_TRUE((*backend)->Sync().ok());
    ASSERT_TRUE((*backend)->ReplaceAll({"compact-a", "compact-b"}).ok());
    // The backend stays usable after the rename swap.
    ASSERT_TRUE((*backend)->Append("post-compact").ok());
    ASSERT_TRUE((*backend)->Sync().ok());
  }
  auto reopened = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ((*reopened)->records().size(), 3u);
  EXPECT_EQ(Contents((*reopened)->records()),
            (Lines{"compact-a", "compact-b", "post-compact"}));
}

TEST(FileStorageBackendTest, StaleCompactionTempFileIgnored) {
  TempLogPath path("stale_tmp");
  {
    auto backend = FileStorageBackend::Open(path.get());
    ASSERT_TRUE(backend.ok());
    ASSERT_TRUE((*backend)->Append("durable").ok());
    ASSERT_TRUE((*backend)->Sync().ok());
  }
  // A compaction that crashed before its rename leaves path.tmp behind;
  // it must not shadow or corrupt the real log.
  WriteFileBytes(path.get() + ".tmp",
                 FileStorageBackend::EncodeFrame("half-finished-checkpoint"));
  auto reopened = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ((*reopened)->records().size(), 1u);
  EXPECT_EQ(Contents((*reopened)->records()), Lines{"durable"});
}

TEST(FileStorageBackendTest, CrashTruncatesToDurableMark) {
  TempLogPath path("crash_mark");
  const std::string big(RecordArena::kBlockBytes + 11, 'y');
  auto backend = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(backend.ok());
  ASSERT_TRUE((*backend)->Append("head|").ok());
  ASSERT_TRUE((*backend)->Append(big).ok());
  ASSERT_TRUE((*backend)->Sync().ok());
  ASSERT_TRUE((*backend)->Append(big + "lost").ok());
  (*backend)->SimulateCrash();
  EXPECT_EQ(Contents((*backend)->records()), (Lines{"head|", big}));
  // The backend stays usable; the next sync appends after the mark.
  ASSERT_TRUE((*backend)->Append("").ok());
  ASSERT_TRUE((*backend)->Sync().ok());
  auto reopened = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Contents((*reopened)->records()), (Lines{"head|", big, ""}));
  EXPECT_EQ((*reopened)->open_stats().torn_bytes_truncated, 0u);
}

TEST(FileStorageBackendTest, CrashDuringSyncTearsTailThatReopenDrops) {
  TempLogPath path("crash_sync");
  const std::string big(2 * RecordArena::kBlockBytes, 'z');
  {
    auto backend = FileStorageBackend::Open(path.get());
    ASSERT_TRUE(backend.ok());
    ASSERT_TRUE((*backend)->Append(big).ok());
    ASSERT_TRUE((*backend)->Append("|").ok());
    ASSERT_TRUE((*backend)->Sync().ok());
    ASSERT_TRUE((*backend)->Append(big + "torn").ok());
    (*backend)->SimulateCrashDuringSync();
    EXPECT_EQ(Contents((*backend)->records()), (Lines{big, "|"}));
    EXPECT_EQ((*backend)->durable_size(), 2u);
  }
  auto reopened = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Contents((*reopened)->records()), (Lines{big, "|"}));
  EXPECT_GT((*reopened)->open_stats().torn_bytes_truncated, 0u);
}

TEST(FileStorageBackendTest, ReplaceAllWithLargeRecordsThenReopen) {
  TempLogPath path("compact_large");
  const Lines replacement = {std::string(RecordArena::kBlockBytes - 1, 'c'),
                             "", "x|y", std::string(300, 'd')};
  {
    auto backend = FileStorageBackend::Open(path.get());
    ASSERT_TRUE(backend.ok());
    ASSERT_TRUE((*backend)->Append("old").ok());
    ASSERT_TRUE((*backend)->Sync().ok());
    ASSERT_TRUE((*backend)->ReplaceAll(replacement).ok());
    EXPECT_EQ(Contents((*backend)->records()), replacement);
    EXPECT_EQ((*backend)->durable_size(), replacement.size());
  }
  auto reopened = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Contents((*reopened)->records()), replacement);
}

TEST(FileStorageBackendTest, WalOverFileBackendLosesUnsyncedTail) {
  TempLogPath path("wal");
  auto backend = FileStorageBackend::Open(path.get());
  ASSERT_TRUE(backend.ok());
  Wal wal(std::move(*backend), /*synchronous=*/false);
  ASSERT_TRUE(wal.Append("a").ok());
  ASSERT_TRUE(wal.Flush().ok());
  ASSERT_TRUE(wal.Append("b").ok());
  EXPECT_EQ(wal.durable_size(), 1u);
  wal.Crash();
  ASSERT_EQ(wal.size(), 1u);
  EXPECT_EQ(Contents(wal.records()), Lines{"a"});
}

}  // namespace
}  // namespace tpm
