// Sharded crash recovery: every shard writes its own file WAL; after a
// mid-flight kill, a fresh runtime over the same WAL directory recovers
// every shard concurrently and the per-shard self-check (PRED + Proc-REC)
// plus the cross-ADT invariants must hold.

#include <gtest/gtest.h>

#include <filesystem>

#include "common/fingerprint.h"
#include "common/str_util.h"
#include "core/pred.h"
#include "core/recoverability.h"
#include "core/schedule.h"
#include "runtime/sharded_runtime.h"
#include "workload/sharded_world.h"

namespace tpm {
namespace {

std::vector<const ProcessDef*> MakeMix(ShardedWorld* world, int per_tenant) {
  std::vector<const ProcessDef*> defs;
  for (int round = 0; round < per_tenant; ++round) {
    for (int t = 0; t < world->num_tenants(); ++t) {
      defs.push_back(world->MakeOrderProcess(
          t, "order_t" + std::to_string(t) + "_" + std::to_string(round)));
      defs.push_back(world->MakeConsumeProcess(
          t, "consume_t" + std::to_string(t) + "_" + std::to_string(round)));
      defs.push_back(world->MakeRefillProcess(
          t, "refill_t" + std::to_string(t) + "_" + std::to_string(round)));
    }
  }
  return defs;
}

std::string FreshWalDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "sharded_recovery_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// Crash the runtime at a range of lockstep cut points; at each cut the
// second incarnation must recover every shard WAL to a consistent state.
TEST(ShardedRecoveryTest, KillAtEveryTickRecoversEveryShard) {
  constexpr int kTenants = 3;
  constexpr int kShards = 3;
  for (int crash_at = 1; crash_at <= 12; ++crash_at) {
    SCOPED_TRACE("crash_at=" + std::to_string(crash_at));
    const std::string wal_dir =
        FreshWalDir("tick_" + std::to_string(crash_at));
    // The world (subsystem state) survives the scheduler crash — the
    // paper's model: subsystems keep orphaned effects and prepared
    // branches; only the scheduler incarnation dies.
    ShardedWorld world({.seed = 31, .num_tenants = kTenants});
    std::vector<const ProcessDef*> defs = MakeMix(&world, 2);

    ShardedRuntimeOptions options;
    options.num_shards = kShards;
    options.mode = TickMode::kLockstep;
    options.log_mode = ShardLogMode::kFile;
    options.wal_dir = wal_dir;
    {
      ShardedRuntime runtime(options);
      ASSERT_TRUE(world.RegisterAll(&runtime).ok());
      ASSERT_TRUE(runtime.Start().ok());
      for (const ProcessDef* def : defs) {
        ASSERT_TRUE(runtime.Submit(def).ok());
      }
      ASSERT_TRUE(runtime.Tick(crash_at).ok());
      // Kill: no drain, workers stop mid-schedule, queued work fails.
      ASSERT_TRUE(runtime.Stop().ok());
      // Each shard produced its own WAL file.
      for (int s = 0; s < kShards; ++s) {
        EXPECT_TRUE(std::filesystem::exists(
            std::filesystem::path(wal_dir) /
            ("shard-" + std::to_string(s) + ".wal")))
            << "shard " << s;
      }
    }

    // Second incarnation: same configuration => same deterministic
    // partition, so shard i's WAL meets shard i's subsystems again.
    ShardedRuntime recovered(options);
    ASSERT_TRUE(world.RegisterAll(&recovered).ok());
    ASSERT_TRUE(recovered.Start().ok());
    auto defs_by_name = world.DefsByName();
    // Recover replays all shard WALs concurrently; with verify_recovery
    // (default) each shard asserts PRED + Proc-REC on its own recovered
    // history before reporting success.
    ASSERT_TRUE(recovered.Recover(defs_by_name).ok());

    // The ADT invariants must hold across every tenant after recovery.
    EXPECT_TRUE(world.CheckAdtInvariants().ok());

    // The recovered runtime accepts and completes new work.
    const ProcessDef* post = world.MakeRefillProcess(0, "post_recovery");
    auto ticket = recovered.Submit(post);
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    ASSERT_TRUE(recovered.Drain().ok());
    auto pid = ticket->Await();
    ASSERT_TRUE(pid.ok()) << pid.status();
    ASSERT_TRUE(recovered.Stop().ok());
    EXPECT_EQ(recovered.shard_scheduler(ticket->shard)->OutcomeOf(*pid),
              ProcessOutcome::kCommitted);
    // Explicit re-check from the outside, same criteria the internal
    // verify ran: PRED on each shard history, Proc-REC on its committed
    // projection.
    for (int s = 0; s < kShards; ++s) {
      TransactionalProcessScheduler* scheduler = recovered.shard_scheduler(s);
      auto pred = IsPRED(scheduler->history(), scheduler->conflict_spec());
      ASSERT_TRUE(pred.ok());
      EXPECT_TRUE(*pred) << "shard " << s;
      EXPECT_TRUE(IsProcessRecoverable(
          CommittedProjection(scheduler->history()),
          scheduler->conflict_spec()))
          << "shard " << s;
    }
    std::filesystem::remove_all(wal_dir);
  }
}

// A clean (fully drained) shutdown recovers to a no-op: nothing in flight,
// nothing compensated, stats show zero recovery anomalies.
TEST(ShardedRecoveryTest, RecoveryAfterCleanDrainIsANoOp) {
  const std::string wal_dir = FreshWalDir("clean");
  ShardedWorld world({.seed = 37, .num_tenants = 2});
  std::vector<const ProcessDef*> defs = MakeMix(&world, 1);
  ShardedRuntimeOptions options;
  options.num_shards = 2;
  options.mode = TickMode::kLockstep;
  options.log_mode = ShardLogMode::kFile;
  options.wal_dir = wal_dir;
  int64_t committed_before = 0;
  {
    ShardedRuntime runtime(options);
    ASSERT_TRUE(world.RegisterAll(&runtime).ok());
    ASSERT_TRUE(runtime.Start().ok());
    for (const ProcessDef* def : defs) {
      ASSERT_TRUE(runtime.Submit(def).ok());
    }
    ASSERT_TRUE(runtime.Drain().ok());
    committed_before = runtime.Stats().merged.processes_committed;
    ASSERT_TRUE(runtime.Stop().ok());
  }
  ASSERT_GT(committed_before, 0);

  ShardedRuntime recovered(options);
  ASSERT_TRUE(world.RegisterAll(&recovered).ok());
  ASSERT_TRUE(recovered.Start().ok());
  ASSERT_TRUE(recovered.Recover(world.DefsByName()).ok());
  RuntimeStats stats = recovered.Stats();
  // Replay rebuilds terminal states without re-running work: no
  // compensations, no anomalies (the drain was clean).
  EXPECT_EQ(stats.merged.compensations, 0);
  EXPECT_EQ(stats.merged.recovered_log_anomalies, 0);
  ASSERT_TRUE(recovered.Stop().ok());
  // Every previously committed process is recorded committed again in the
  // recovered shard histories.
  int64_t committed_after = 0;
  for (int s = 0; s < options.num_shards; ++s) {
    const ProcessSchedule& history =
        recovered.shard_scheduler(s)->history();
    for (const auto& [pid, def] : history.processes()) {
      if (history.IsProcessCommitted(pid)) ++committed_after;
    }
  }
  EXPECT_EQ(committed_after, committed_before);
  EXPECT_TRUE(world.CheckAdtInvariants().ok());
  std::filesystem::remove_all(wal_dir);
}

// Behaviour golden of the group abort: after lockstep crash cuts on the
// file WAL, the recovered shard histories, the outcome of every process
// they name, and the subsystem objects must not move when only the way
// recovery drives its invocations changes. The ADTs are folded as objects
// (escrow balances, queue tokens), not through StateFingerprint: that
// also folds the subsystem's prepared-transaction counter, which counts
// how recovery invoked, not what it did. Regenerate only for an intended
// behaviour change, and say so in the commit.
TEST(ShardedRecoveryTest, RecoveredCrashCutsMatchGolden) {
  constexpr int kTenants = 3;
  constexpr int kShards = 3;
  uint64_t digest = kFnv1aOffsetBasis;
  int64_t compensations = 0;
  for (int crash_at : {2, 4, 6, 8, 10}) {
    SCOPED_TRACE("crash_at=" + std::to_string(crash_at));
    const std::string wal_dir =
        FreshWalDir("golden_" + std::to_string(crash_at));
    ShardedWorld world({.seed = 31, .num_tenants = kTenants});
    std::vector<const ProcessDef*> defs = MakeMix(&world, 2);
    ShardedRuntimeOptions options;
    options.num_shards = kShards;
    options.mode = TickMode::kLockstep;
    options.log_mode = ShardLogMode::kFile;
    options.wal_dir = wal_dir;
    {
      ShardedRuntime runtime(options);
      ASSERT_TRUE(world.RegisterAll(&runtime).ok());
      ASSERT_TRUE(runtime.Start().ok());
      for (const ProcessDef* def : defs) {
        ASSERT_TRUE(runtime.Submit(def).ok());
      }
      ASSERT_TRUE(runtime.Tick(crash_at).ok());
      ASSERT_TRUE(runtime.Stop().ok());
    }
    ShardedRuntime recovered(options);
    ASSERT_TRUE(world.RegisterAll(&recovered).ok());
    ASSERT_TRUE(recovered.Start().ok());
    ASSERT_TRUE(recovered.Recover(world.DefsByName()).ok());
    compensations += recovered.Stats().merged.compensations;
    ASSERT_TRUE(recovered.Stop().ok());

    for (int s = 0; s < kShards; ++s) {
      const TransactionalProcessScheduler* scheduler =
          recovered.shard_scheduler(s);
      digest = Fnv1a(digest, scheduler->history().ToString());
      for (const auto& [pid, def] : scheduler->history().processes()) {
        digest = Fnv1a(digest, StrCat(s, ":P", pid, "=",
                                      static_cast<int>(
                                          scheduler->OutcomeOf(pid))));
      }
    }
    for (int t = 0; t < kTenants; ++t) {
      for (const auto& [key, value] : world.kv(t)->store().Snapshot()) {
        digest = Fnv1a(digest, StrCat(t, ":kv:", key, "=", value));
      }
      for (const auto& [counter, balance] : world.escrow(t)->Snapshot()) {
        digest = Fnv1a(digest, StrCat(t, ":escrow:", counter, "=", balance,
                                      "/", world.escrow(t)->AvailableOf(
                                               counter)));
      }
      for (const auto& [queue, tokens] : world.queue(t)->Snapshot()) {
        digest = Fnv1a(digest, StrCat(t, ":queue:", queue, "="));
        for (int64_t token : tokens) digest = Fnv1aInt(digest, token);
      }
    }
    std::filesystem::remove_all(wal_dir);
  }
  // The cuts leave work to compensate, so the group abort really ran.
  EXPECT_GT(compensations, 0);
  EXPECT_EQ(digest, 0xcff9bd4e4b6bbaf0ull) << std::hex << digest;
}

// Recover must fail loudly, not silently, when a shard WAL is corrupted.
TEST(ShardedRecoveryTest, ReportsWhichShardFailsVerification) {
  const std::string wal_dir = FreshWalDir("corrupt");
  ShardedWorld world({.seed = 41, .num_tenants = 2});
  std::vector<const ProcessDef*> defs = MakeMix(&world, 1);
  ShardedRuntimeOptions options;
  options.num_shards = 2;
  options.mode = TickMode::kLockstep;
  options.log_mode = ShardLogMode::kFile;
  options.wal_dir = wal_dir;
  {
    ShardedRuntime runtime(options);
    ASSERT_TRUE(world.RegisterAll(&runtime).ok());
    ASSERT_TRUE(runtime.Start().ok());
    for (const ProcessDef* def : defs) {
      ASSERT_TRUE(runtime.Submit(def).ok());
    }
    ASSERT_TRUE(runtime.Tick(3).ok());
    ASSERT_TRUE(runtime.Stop().ok());
  }
  // Recover against EMPTY defs: every BEGIN record references an unknown
  // def name, which the per-shard replay must surface as an error naming
  // the shard.
  ShardedRuntime recovered(options);
  ASSERT_TRUE(world.RegisterAll(&recovered).ok());
  ASSERT_TRUE(recovered.Start().ok());
  std::map<std::string, const ProcessDef*> empty;
  Status status = recovered.Recover(empty);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shard "), std::string::npos) << status;
  ASSERT_TRUE(recovered.Stop().ok());
  std::filesystem::remove_all(wal_dir);
}

}  // namespace
}  // namespace tpm
