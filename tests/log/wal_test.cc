#include "log/wal.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "log/memory_backend.h"
#include "testing/fault_injector.h"

namespace tpm {
namespace {

using testing::FaultInjector;
using Lines = std::vector<std::string>;

/// Every record of `wal`, in order, read through the arena iterator.
Lines Contents(const Wal& wal) {
  return Lines(wal.records().begin(), wal.records().end());
}

TEST(WalTest, SynchronousAppendsAreDurable) {
  Wal wal(/*synchronous=*/true);
  wal.Append("a");
  wal.Append("b");
  EXPECT_EQ(wal.durable_size(), 2u);
  wal.Crash();
  EXPECT_EQ(wal.size(), 2u);
}

TEST(WalTest, AsynchronousAppendsLostOnCrash) {
  Wal wal(/*synchronous=*/false);
  wal.Append("a");
  wal.Flush();
  wal.Append("b");
  wal.Append("c");
  EXPECT_EQ(wal.durable_size(), 1u);
  wal.Crash();
  EXPECT_EQ(wal.size(), 1u);
  EXPECT_EQ(Contents(wal), Lines{"a"});
}

TEST(WalTest, FlushMakesTailDurable) {
  Wal wal(/*synchronous=*/false);
  wal.Append("a");
  wal.Flush();
  EXPECT_EQ(wal.durable_size(), 1u);
}

TEST(WalTest, ClearResets) {
  Wal wal;
  wal.Append("a");
  wal.Clear();
  EXPECT_EQ(wal.size(), 0u);
  EXPECT_EQ(wal.durable_size(), 0u);
}

TEST(WalTest, InjectedCrashBeforeAppendLosesRecordUntilRestart) {
  Wal wal(/*synchronous=*/true);
  FaultInjector injector;
  wal.SetCrashPointListener(&injector);
  ASSERT_TRUE(wal.Append("a").ok());
  injector.ArmAtSite(kWalCrashSiteAppend, 1);
  injector.ResetCounts();
  Status s = wal.Append("b");
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_TRUE(wal.crashed());
  EXPECT_EQ(injector.triggered_site(), kWalCrashSiteAppend);
  // Every operation fails until the restart.
  EXPECT_TRUE(wal.Append("c").IsUnavailable());
  EXPECT_TRUE(wal.Flush().IsUnavailable());
  wal.Crash();
  EXPECT_FALSE(wal.crashed());
  EXPECT_EQ(Contents(wal), Lines{"a"});
  ASSERT_TRUE(wal.Append("d").ok());
  EXPECT_EQ(wal.durable_size(), 2u);
}

TEST(WalTest, InjectedCrashDuringSyncLosesTail) {
  Wal wal(/*synchronous=*/false);
  FaultInjector injector;
  wal.SetCrashPointListener(&injector);
  ASSERT_TRUE(wal.Append("a").ok());
  ASSERT_TRUE(wal.Flush().ok());
  ASSERT_TRUE(wal.Append("b").ok());
  injector.ArmAtSite(kWalCrashSiteSync, 1);
  injector.ResetCounts();
  EXPECT_TRUE(wal.Flush().IsUnavailable());
  wal.Crash();
  // The sync never completed: only the previously durable prefix remains.
  EXPECT_EQ(wal.size(), 1u);
  EXPECT_EQ(Contents(wal), Lines{"a"});
}

TEST(WalTest, ReplaceAllIsAtomicUnderInjectedCrash) {
  // Crash before the swap: the old contents survive untouched.
  {
    Wal wal(/*synchronous=*/true);
    FaultInjector injector;
    wal.SetCrashPointListener(&injector);
    ASSERT_TRUE(wal.Append("old1").ok());
    ASSERT_TRUE(wal.Append("old2").ok());
    injector.ArmAtSite(kWalCrashSiteReplace, 1);
    injector.ResetCounts();
    EXPECT_TRUE(wal.ReplaceAll({"new1"}).IsUnavailable());
    wal.Crash();
    ASSERT_EQ(wal.size(), 2u);
    EXPECT_EQ(Contents(wal), (Lines{"old1", "old2"}));
  }
  // Crash after the swap: the complete new contents survive. Either way,
  // never a truncated mixture.
  {
    Wal wal(/*synchronous=*/true);
    FaultInjector injector;
    wal.SetCrashPointListener(&injector);
    ASSERT_TRUE(wal.Append("old1").ok());
    injector.ArmAtSite(kWalCrashSiteReplaced, 1);
    injector.ResetCounts();
    EXPECT_TRUE(wal.ReplaceAll({"new1", "new2"}).IsUnavailable());
    wal.Crash();
    ASSERT_EQ(wal.size(), 2u);
    EXPECT_EQ(Contents(wal), (Lines{"new1", "new2"}));
  }
}

TEST(MemoryStorageBackendTest, CrashTruncatesToDurableMark) {
  // Records straddling block boundaries on both sides of the durable mark.
  const std::string big(RecordArena::kBlockBytes + 3, 'x');
  MemoryStorageBackend backend;
  ASSERT_TRUE(backend.Append("").ok());
  ASSERT_TRUE(backend.Append(big).ok());
  ASSERT_TRUE(backend.Append("a|b").ok());
  ASSERT_TRUE(backend.Sync().ok());
  ASSERT_TRUE(backend.Append(big + "tail").ok());
  ASSERT_TRUE(backend.Append("lost").ok());
  EXPECT_EQ(backend.size(), 5u);
  EXPECT_EQ(backend.durable_size(), 3u);
  backend.SimulateCrashDuringSync();
  EXPECT_EQ(Lines(backend.records().begin(), backend.records().end()),
            (Lines{"", big, "a|b"}));
  // The log continues right after the durable mark.
  ASSERT_TRUE(backend.Append("next").ok());
  EXPECT_EQ(Lines(backend.records().begin(), backend.records().end()),
            (Lines{"", big, "a|b", "next"}));
  EXPECT_EQ(backend.durable_size(), 3u);
}

TEST(MemoryStorageBackendTest, ReplaceAllIsDurableAsAUnit) {
  MemoryStorageBackend backend;
  ASSERT_TRUE(backend.Append("old").ok());
  ASSERT_TRUE(backend.ReplaceAll({"new|1", "", "new|3"}).ok());
  EXPECT_EQ(backend.durable_size(), 3u);
  ASSERT_TRUE(backend.Append("volatile").ok());
  backend.SimulateCrash();
  EXPECT_EQ(Lines(backend.records().begin(), backend.records().end()),
            (Lines{"new|1", "", "new|3"}));
  ASSERT_TRUE(backend.ReplaceAll({}).ok());
  EXPECT_EQ(backend.size(), 0u);
  EXPECT_EQ(backend.records().bytes_reserved(), 0u);
}

}  // namespace
}  // namespace tpm
