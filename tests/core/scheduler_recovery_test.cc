#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "core/scheduler.h"
#include "log/file_backend.h"
#include "testing/fault_injector.h"
#include "testing/mini_world.h"

namespace tpm {
namespace {

using testing::MiniWorld;

int CountRecords(RecoveryLog* log, SchedulerLogRecord::Kind kind) {
  Result<std::vector<SchedulerLogRecord>> records = log->Records();
  if (!records.ok()) return -1;
  int count = 0;
  for (const SchedulerLogRecord& record : *records) {
    if (record.kind == kind) ++count;
  }
  return count;
}

/// Two processes to roll back (two compensations each) and two to roll
/// forward (two retriable steps each), on disjoint keys: crashed after two
/// passes, their group abort is eight steps that fit one prepared wave.
std::vector<const ProcessDef*> MakeDisjointGroupAbort(MiniWorld* world) {
  std::vector<const ProcessDef*> defs;
  for (int i = 0; i < 2; ++i) {
    defs.push_back(world->MakeChain(
        StrCat("back", i), StrCat("c:a", i, " c:b", i, " c:d", i, " p:x", i)));
    defs.push_back(world->MakeChain(
        StrCat("fwd", i), StrCat("c:e", i, " p:f", i, " r:g", i, " r:h", i)));
  }
  return defs;
}

/// Runs MakeDisjointGroupAbort's processes for two passes and crashes.
void CrashDisjointGroupAbort(MiniWorld* world,
                             TransactionalProcessScheduler* scheduler) {
  // The definitions register their services before the subsystem is.
  const std::vector<const ProcessDef*> defs = MakeDisjointGroupAbort(world);
  ASSERT_TRUE(scheduler->RegisterSubsystem(world->subsystem()).ok());
  for (const ProcessDef* def : defs) {
    ASSERT_NE(def, nullptr);
    ASSERT_TRUE(scheduler->Submit(def).ok());
  }
  ASSERT_TRUE(scheduler->Step().ok());
  ASSERT_TRUE(scheduler->Step().ok());
  scheduler->Crash();
}

void ExpectDisjointGroupAbortDone(const MiniWorld& world) {
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(world.Value(StrCat("a", i)), 0) << i;
    EXPECT_EQ(world.Value(StrCat("b", i)), 0) << i;
    EXPECT_EQ(world.Value(StrCat("e", i)), 1) << i;
    EXPECT_EQ(world.Value(StrCat("g", i)), 1) << i;
    EXPECT_EQ(world.Value(StrCat("h", i)), 1) << i;
  }
}

TEST(SchedulerRecoveryTest, RecoverWithoutLogFails) {
  TransactionalProcessScheduler scheduler;
  EXPECT_TRUE(scheduler.Recover({}).IsFailedPrecondition());
}

TEST(SchedulerRecoveryTest, CrashBeforeAnythingIsHarmless) {
  MiniWorld world;
  RecoveryLog log;
  TransactionalProcessScheduler scheduler({}, &log);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  scheduler.Crash();
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  EXPECT_TRUE(scheduler.history().events().empty());
}

TEST(SchedulerRecoveryTest, BackwardRecoveryAfterCrash) {
  MiniWorld world;
  const ProcessDef* def = world.MakeChain("p", "c:a c:b c:d p:x r:y");
  ASSERT_NE(def, nullptr);
  RecoveryLog log;
  TransactionalProcessScheduler scheduler({}, &log);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  ASSERT_TRUE(scheduler.Submit(def).ok());
  // Execute two activities, then crash before the pivot.
  ASSERT_TRUE(scheduler.Step().ok());
  ASSERT_TRUE(scheduler.Step().ok());
  EXPECT_EQ(world.Value("a"), 1);
  EXPECT_EQ(world.Value("b"), 1);
  scheduler.Crash();
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  // The in-flight process was group-aborted: all effects compensated.
  EXPECT_EQ(world.Value("a"), 0);
  EXPECT_EQ(world.Value("b"), 0);
  EXPECT_EQ(world.Value("x"), 0);
  EXPECT_EQ(scheduler.OutcomeOf(ProcessId(1)), ProcessOutcome::kAborted);
}

TEST(SchedulerRecoveryTest, ForwardRecoveryAfterCrash) {
  MiniWorld world;
  const ProcessDef* def = world.MakeChain("p", "c:a p:x r:y r:z");
  ASSERT_NE(def, nullptr);
  RecoveryLog log;
  TransactionalProcessScheduler scheduler({}, &log);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  ASSERT_TRUE(scheduler.Submit(def).ok());
  // Run until the pivot committed (a, x), then crash.
  ASSERT_TRUE(scheduler.Step().ok());
  ASSERT_TRUE(scheduler.Step().ok());
  EXPECT_EQ(world.Value("x"), 1);
  scheduler.Crash();
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  // F-REC: the forward recovery path (y, z) was executed; effects stay.
  EXPECT_EQ(world.Value("a"), 1);
  EXPECT_EQ(world.Value("x"), 1);
  EXPECT_EQ(world.Value("y"), 1);
  EXPECT_EQ(world.Value("z"), 1);
}

TEST(SchedulerRecoveryTest, CommittedProcessesUntouchedByRecovery) {
  MiniWorld world;
  const ProcessDef* done = world.MakeChain("done", "c:a p:b");
  const ProcessDef* inflight = world.MakeChain("inflight", "c:d c:e p:f");
  ASSERT_NE(done, nullptr);
  ASSERT_NE(inflight, nullptr);
  RecoveryLog log;
  TransactionalProcessScheduler scheduler({}, &log);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  ASSERT_TRUE(scheduler.Submit(done).ok());
  ASSERT_TRUE(scheduler.Run().ok());
  ASSERT_TRUE(scheduler.Submit(inflight).ok());
  ASSERT_TRUE(scheduler.Step().ok());  // executes d only
  scheduler.Crash();
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  // The committed process's effects persist...
  EXPECT_EQ(world.Value("a"), 1);
  EXPECT_EQ(world.Value("b"), 1);
  // ...the in-flight one was rolled back.
  EXPECT_EQ(world.Value("d"), 0);
  EXPECT_EQ(world.Value("e"), 0);
  EXPECT_EQ(scheduler.OutcomeOf(ProcessId(1)), ProcessOutcome::kCommitted);
  EXPECT_EQ(scheduler.OutcomeOf(ProcessId(2)), ProcessOutcome::kAborted);
}

TEST(SchedulerRecoveryTest, GroupAbortOrdersCompensationsReverse) {
  MiniWorld world;
  const ProcessDef* p1 = world.MakeChain("p1", "c:a c:b p:x");
  const ProcessDef* p2 = world.MakeChain("p2", "c:d c:e p:y");
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  RecoveryLog log;
  TransactionalProcessScheduler scheduler({}, &log);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  ASSERT_TRUE(scheduler.Submit(p1).ok());
  ASSERT_TRUE(scheduler.Submit(p2).ok());
  ASSERT_TRUE(scheduler.Step().ok());  // a, d
  ASSERT_TRUE(scheduler.Step().ok());  // b, e
  scheduler.Crash();
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  // All four compensations executed; Lemma 2: reverse order of originals.
  const auto& events = scheduler.history().events();
  std::vector<std::string> inverses;
  for (const auto& e : events) {
    if (e.type == EventType::kActivity && e.act.inverse) {
      inverses.push_back(e.ToString());
    }
  }
  ASSERT_EQ(inverses.size(), 4u);
  // Log order of originals: a(P1), d(P2), b(P1), e(P2) -> reverse:
  // e(P2), b(P1), d(P2), a(P1) = activities 2,2,1,1 of processes 2,1,2,1.
  EXPECT_EQ(inverses[0], "a2_2^-1");
  EXPECT_EQ(inverses[1], "a1_2^-1");
  EXPECT_EQ(inverses[2], "a2_1^-1");
  EXPECT_EQ(inverses[3], "a1_1^-1");
  EXPECT_EQ(world.Value("a") + world.Value("b") + world.Value("d") +
                world.Value("e"),
            0);
}

TEST(SchedulerRecoveryTest, PreparedBranchesPresumedAborted) {
  MiniWorld world;
  const ProcessDef* p1 = world.MakeChain("p1", "c:s c:q1 c:q2 p:t r:u");
  const ProcessDef* p2 = world.MakeChain("p2", "c:w p:s r:v");
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  RecoveryLog log;
  SchedulerOptions options;
  options.defer_mode = DeferMode::kPrepared2PC;
  TransactionalProcessScheduler scheduler(options, &log);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  ASSERT_TRUE(scheduler.Submit(p1).ok());
  ASSERT_TRUE(scheduler.Submit(p2).ok());
  // Run a few steps so P2's pivot on "s" is prepared but not released
  // (blocked on active P1).
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(scheduler.Step().ok());
  EXPECT_GT(scheduler.stats().prepared_branches, 0);
  scheduler.Crash();
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  // The prepared pivot never committed: presumed abort wiped it, and the
  // compensations of both processes went through (locks were released).
  EXPECT_EQ(world.Value("s"), 0);
  EXPECT_EQ(world.Value("w"), 0);
}

TEST(SchedulerRecoveryTest, SchedulerContinuesAfterRecovery) {
  MiniWorld world;
  const ProcessDef* def = world.MakeChain("p", "c:a c:b p:x");
  ASSERT_NE(def, nullptr);
  RecoveryLog log;
  TransactionalProcessScheduler scheduler({}, &log);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  ASSERT_TRUE(scheduler.Submit(def).ok());
  ASSERT_TRUE(scheduler.Step().ok());
  scheduler.Crash();
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  // New work after recovery proceeds normally with a fresh pid.
  auto pid = scheduler.Submit(def);
  ASSERT_TRUE(pid.ok());
  EXPECT_GT(pid->value(), 1);
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.OutcomeOf(*pid), ProcessOutcome::kCommitted);
  EXPECT_EQ(world.Value("a"), 1);
  EXPECT_EQ(world.Value("b"), 1);
  EXPECT_EQ(world.Value("x"), 1);
}

TEST(SchedulerRecoveryTest, CheckpointCompactsLog) {
  MiniWorld world;
  const ProcessDef* quick = world.MakeChain("quick", "c:a p:b");
  const ProcessDef* slow = world.MakeChain("slow", "c:d c:e c:f p:g");
  ASSERT_NE(quick, nullptr);
  ASSERT_NE(slow, nullptr);
  RecoveryLog log;
  TransactionalProcessScheduler scheduler({}, &log);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  // Run several quick processes to completion, then leave one in flight.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(scheduler.Submit(quick).ok());
    ASSERT_TRUE(scheduler.Run().ok());
  }
  ASSERT_TRUE(scheduler.Submit(slow).ok());
  ASSERT_TRUE(scheduler.Step().ok());  // d
  ASSERT_TRUE(scheduler.Step().ok());  // e
  size_t before = log.size();
  ASSERT_TRUE(scheduler.Checkpoint().ok());
  // Compacted: 1 BEGIN + 2 ACT records instead of the full run history.
  EXPECT_EQ(log.size(), 3u);
  EXPECT_LT(log.size(), before);
  // Recovery from the compact log still rolls the in-flight process back.
  scheduler.Crash();
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  EXPECT_EQ(world.Value("d"), 0);
  EXPECT_EQ(world.Value("e"), 0);
  // The committed quick processes' effects are untouched.
  EXPECT_EQ(world.Value("a"), 5);
  EXPECT_EQ(world.Value("b"), 5);
}

TEST(SchedulerRecoveryTest, CheckpointPreservesCompensatedState) {
  // A process that compensated some work (branch switch) checkpoints to an
  // equivalent compact state: recovery must not re-compensate.
  MiniWorld world;
  const ProcessDef* def =
      world.MakeBranching("p", "pre", "piv", "mid", "deep", "alt");
  ASSERT_NE(def, nullptr);
  world.subsystem()->ScheduleFailures(world.AddServiceFor("deep"), 1);
  RecoveryLog log;
  TransactionalProcessScheduler scheduler({}, &log);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  ASSERT_TRUE(scheduler.Submit(def).ok());
  // Run until the branch switch compensated "mid" (pre, piv, mid, deep
  // fails, mid^-1): 5 passes is plenty.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(scheduler.Step().ok());
  ASSERT_EQ(world.Value("mid"), 0);
  ASSERT_TRUE(scheduler.Checkpoint().ok());
  scheduler.Crash();
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  // F-REC group abort: pre/piv stay, mid stays compensated (not negative!).
  EXPECT_EQ(world.Value("pre"), 1);
  EXPECT_EQ(world.Value("piv"), 1);
  EXPECT_EQ(world.Value("mid"), 0);
  EXPECT_EQ(world.Value("alt"), 1);  // forward recovery ran the alternative
}

TEST(SchedulerRecoveryTest, CheckpointWithoutLogFails) {
  TransactionalProcessScheduler scheduler;
  EXPECT_TRUE(scheduler.Checkpoint().IsFailedPrecondition());
}

TEST(SchedulerRecoveryTest, GroupAbortSyncsOnlyBeforeSubsystemInvocations) {
  // The group abort stages its ABORT, forward ACT and COMP records and
  // syncs the log only before each subsystem invocation and once at the
  // end — on both backends of a synchronous log.
  const std::string path = ::testing::TempDir() + "tpm_recovery_syncs_" +
                           StrCat(::getpid()) + ".log";
  for (bool on_file : {false, true}) {
    std::remove(path.c_str());
    MiniWorld world;
    std::unique_ptr<RecoveryLog> log;
    if (on_file) {
      auto backend = FileStorageBackend::Open(path);
      ASSERT_TRUE(backend.ok()) << backend.status().ToString();
      log = std::make_unique<RecoveryLog>(std::move(*backend));
    } else {
      log = std::make_unique<RecoveryLog>();
    }
    std::vector<const ProcessDef*> defs = MakeDisjointGroupAbort(&world);
    TransactionalProcessScheduler scheduler({}, log.get());
    ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
    for (const ProcessDef* def : defs) {
      ASSERT_NE(def, nullptr);
      ASSERT_TRUE(scheduler.Submit(def).ok());
    }
    ASSERT_TRUE(scheduler.Step().ok());
    ASSERT_TRUE(scheduler.Step().ok());
    ASSERT_EQ(world.Value("b0"), 1);
    ASSERT_EQ(world.Value("f1"), 1);
    scheduler.Crash();

    testing::FaultInjector counter;  // never armed: counts hits only
    log->wal()->SetCrashPointListener(&counter);
    const size_t records_before = log->size();
    const int64_t invocations_before = world.subsystem()->invocations();
    ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
    const int64_t invocations =
        world.subsystem()->invocations() - invocations_before;
    const int64_t appended =
        static_cast<int64_t>(log->size() - records_before);
    const auto sync_hits = counter.site_hits().find(kWalCrashSiteSync);
    ASSERT_NE(sync_hits, counter.site_hits().end());

    // 4 compensations + 4 forward steps; 4 COMP + 4 ACT + 4 ABORT records.
    EXPECT_EQ(invocations, 8) << "on_file=" << on_file;
    EXPECT_EQ(appended, 12) << "on_file=" << on_file;
    EXPECT_LE(sync_hits->second, invocations + 1) << "on_file=" << on_file;
    EXPECT_LT(sync_hits->second, appended) << "on_file=" << on_file;
    // Disjoint keys: every step fits one prepared wave, so the log syncs
    // once for the wave and once before returning.
    EXPECT_EQ(CountRecords(log.get(), SchedulerLogRecord::Kind::kWaveResolved),
              0)
        << "on_file=" << on_file;
    EXPECT_LE(sync_hits->second, 2) << "on_file=" << on_file;
    // Everything recovery appended is durable on return.
    EXPECT_EQ(log->wal()->durable_size(), log->size());
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(world.Value(StrCat("a", i)), 0);
      EXPECT_EQ(world.Value(StrCat("b", i)), 0);
      EXPECT_EQ(world.Value(StrCat("h", i)), 1);
    }
    log->wal()->SetCrashPointListener(nullptr);
  }
  std::remove(path.c_str());
}

TEST(SchedulerRecoveryTest, ConflictingCompensationsBreakTheWave) {
  // Both processes wrote key k: their inverses conflict, so the second
  // cannot be prepared beside the first and opens a new wave. The history
  // still shows them in Lemma 2 order (P2's write on k came last).
  MiniWorld world;
  const ProcessDef* p1 = world.MakeChain("p1", "c:k c:m p:x");
  const ProcessDef* p2 = world.MakeChain("p2", "c:n c:k p:y");
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  RecoveryLog log;
  TransactionalProcessScheduler scheduler({}, &log);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  ASSERT_TRUE(scheduler.Submit(p1).ok());
  ASSERT_TRUE(scheduler.Submit(p2).ok());
  for (int i = 0; i < 4 && world.Value("k") < 2; ++i) {
    ASSERT_TRUE(scheduler.Step().ok());
  }
  ASSERT_EQ(world.Value("k"), 2);
  scheduler.Crash();

  testing::FaultInjector counter;
  log.wal()->SetCrashPointListener(&counter);
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  log.wal()->SetCrashPointListener(nullptr);
  const int markers =
      CountRecords(&log, SchedulerLogRecord::Kind::kWaveResolved);
  EXPECT_GE(markers, 1);
  // One sync per wave (markers + 1 waves) and one before returning.
  EXPECT_EQ(counter.site_hits().at(kWalCrashSiteSync), markers + 2);

  // k is activity 1 of P1 and activity 2 of P2.
  std::vector<std::string> inverses;
  for (const auto& e : scheduler.history().events()) {
    if (e.type == EventType::kActivity && e.act.inverse) {
      inverses.push_back(e.ToString());
    }
  }
  const auto position = [&inverses](const std::string& inverse) {
    return std::find(inverses.begin(), inverses.end(), inverse) -
           inverses.begin();
  };
  ASSERT_EQ(inverses.size(), 4u);
  EXPECT_LT(position("a2_2^-1"), position("a1_1^-1"));
  for (const char* key : {"k", "m", "n", "x", "y"}) {
    EXPECT_EQ(world.Value(key), 0) << key;
  }
}

TEST(SchedulerRecoveryTest, CrashAfterWaveFlushCommitsPreparedBranches) {
  // The wave's records are durable but its branches are still prepared: the
  // next Recover commits them without invoking the services again.
  MiniWorld world;
  RecoveryLog log;
  TransactionalProcessScheduler scheduler({}, &log);
  ASSERT_NO_FATAL_FAILURE(CrashDisjointGroupAbort(&world, &scheduler));

  testing::FaultInjector injector;
  log.wal()->SetCrashPointListener(&injector);
  injector.ArmAtSite(kWalCrashSiteSynced, 1);
  const int64_t invocations_before = world.subsystem()->invocations();
  EXPECT_TRUE(scheduler.Recover(world.DefsByName()).IsUnavailable());
  ASSERT_TRUE(injector.triggered());
  log.wal()->SetCrashPointListener(nullptr);
  EXPECT_EQ(world.subsystem()->invocations() - invocations_before, 8);
  EXPECT_EQ(world.Value("a0"), 1);  // prepared, not yet committed

  log.Crash();
  const int64_t invocations_mid = world.subsystem()->invocations();
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  EXPECT_EQ(world.subsystem()->invocations(), invocations_mid);
  ExpectDisjointGroupAbortDone(world);
  for (int p = 1; p <= 4; ++p) {
    EXPECT_EQ(scheduler.OutcomeOf(ProcessId(p)), ProcessOutcome::kAborted);
  }
}

TEST(SchedulerRecoveryTest, CrashBeforeWaveFlushPresumesAbortAndReruns) {
  // The crash tears the wave's flush: no record of it is durable, presumed
  // abort rolls its prepared branches back, and the next Recover runs each
  // step once more.
  MiniWorld world;
  RecoveryLog log;
  TransactionalProcessScheduler scheduler({}, &log);
  ASSERT_NO_FATAL_FAILURE(CrashDisjointGroupAbort(&world, &scheduler));

  testing::FaultInjector injector;
  log.wal()->SetCrashPointListener(&injector);
  injector.ArmAtSite(kWalCrashSiteSync, 1);
  const size_t durable_before = log.wal()->durable_size();
  EXPECT_TRUE(scheduler.Recover(world.DefsByName()).IsUnavailable());
  ASSERT_TRUE(injector.triggered());
  log.wal()->SetCrashPointListener(nullptr);
  EXPECT_EQ(log.wal()->durable_size(), durable_before);

  log.Crash();
  const int64_t invocations_mid = world.subsystem()->invocations();
  ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok());
  EXPECT_EQ(world.subsystem()->invocations() - invocations_mid, 8);
  ExpectDisjointGroupAbortDone(world);
}

}  // namespace
}  // namespace tpm
