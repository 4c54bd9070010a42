// Bounded-memory mode (SchedulerOptions::reclaim_terminated): terminated
// runtimes are recycled into a pool and their history events compacted
// away at epoch boundaries, so a long-running scheduler's footprint is a
// function of the live process set, not of everything it ever ran.
#include <set>

#include "core/scheduler.h"
#include <gtest/gtest.h>

#include "testing/mini_world.h"

namespace tpm {
namespace {

using testing::MiniWorld;

TEST(SchedulerReclaimTest, OutcomesSurviveReclamation) {
  MiniWorld world;
  const ProcessDef* def = world.MakeChain("p", "c:a p:b r:c");
  ASSERT_NE(def, nullptr);

  SchedulerOptions options;
  options.reclaim_terminated = true;
  TransactionalProcessScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());

  constexpr int kProcesses = 200;
  std::vector<ProcessId> pids;
  for (int i = 0; i < kProcesses; ++i) {
    Result<ProcessId> pid = scheduler.Submit(def);
    ASSERT_TRUE(pid.ok()) << pid.status().ToString();
    pids.push_back(*pid);
    ASSERT_TRUE(scheduler.Run().ok());
  }

  // Every outcome is still answerable after the runtime was recycled.
  // (Identical conflicting chains run one at a time all commit.)
  EXPECT_EQ(scheduler.stats().processes_committed, kProcesses);
  for (ProcessId pid : pids) {
    EXPECT_EQ(scheduler.OutcomeOf(pid), ProcessOutcome::kCommitted)
        << "P" << pid.value();
  }
  // Latency records are deliberately not accumulated in bounded mode.
  EXPECT_TRUE(scheduler.latencies().empty());
}

TEST(SchedulerReclaimTest, HistoryAndRuntimeFootprintStayBounded) {
  MiniWorld world;
  const ProcessDef* def = world.MakeChain("p", "c:a p:b");
  ASSERT_NE(def, nullptr);

  SchedulerOptions options;
  options.reclaim_terminated = true;
  TransactionalProcessScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());

  // Enough sequential processes to cross the internal compaction batch
  // (1024 releases) several times.
  constexpr int kProcesses = 3000;
  size_t max_history = 0;
  for (int i = 0; i < kProcesses; ++i) {
    Result<ProcessId> pid = scheduler.Submit(def);
    ASSERT_TRUE(pid.ok()) << pid.status().ToString();
    ASSERT_TRUE(scheduler.Run().ok());
    max_history = std::max(max_history, scheduler.history().size());
  }
  EXPECT_EQ(scheduler.stats().processes_committed, kProcesses);
  // Events of released processes are compacted away in batches of 1024
  // releases; with ~4 events per process the high-water mark stays a
  // small multiple of the batch, far below the ~12000 an unbounded
  // history would hold.
  EXPECT_LT(max_history, 6000u);
  EXPECT_LT(scheduler.history().size(), 6000u);
  // The live process table is empty again (all reclaimed at the last
  // epoch boundary or pending the next one).
  EXPECT_LT(scheduler.history().processes().size(), 3u);
}

TEST(SchedulerReclaimTest, SubmitRoundsWorkWithReclaim) {
  MiniWorld world;
  // Distinct keys so concurrent admission commits everything.
  const ProcessDef* d1 = world.MakeChain("m1", "c:k1 p:l1");
  const ProcessDef* d2 = world.MakeChain("m2", "c:k2 p:l2");
  ASSERT_NE(d1, nullptr);
  ASSERT_NE(d2, nullptr);

  SchedulerOptions options;
  options.reclaim_terminated = true;
  TransactionalProcessScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());

  std::vector<ProcessId> pids;
  for (int round = 0; round < 50; ++round) {
    for (const ProcessDef* def : {d1, d2}) {
      Result<ProcessId> r = scheduler.Submit(def);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      pids.push_back(*r);
    }
    ASSERT_TRUE(scheduler.Run().ok());
  }
  EXPECT_EQ(scheduler.stats().processes_committed, 100);
  for (ProcessId pid : pids) {
    EXPECT_EQ(scheduler.OutcomeOf(pid), ProcessOutcome::kCommitted);
  }
}

TEST(SchedulerReclaimTest, DependenciesAreRejectedUnderReclaim) {
  MiniWorld world;
  const ProcessDef* def = world.MakeChain("p", "c:a p:b");
  ASSERT_NE(def, nullptr);

  SchedulerOptions options;
  options.reclaim_terminated = true;
  TransactionalProcessScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());

  Result<ProcessId> first = scheduler.Submit(def);
  ASSERT_TRUE(first.ok());
  Result<ProcessId> dependent = scheduler.Submit(
      def, 0, {{*first, ActivityId(1)}});
  EXPECT_TRUE(dependent.status().IsInvalidArgument())
      << dependent.status().ToString();
}

TEST(SchedulerReclaimTest, ExternalOrderOnReclaimedPredecessorIsSatisfied) {
  MiniWorld world;
  const ProcessDef* def = world.MakeChain("p", "c:a p:b");
  ASSERT_NE(def, nullptr);

  SchedulerOptions options;
  options.reclaim_terminated = true;
  TransactionalProcessScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());

  Result<ProcessId> p1 = scheduler.Submit(def);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  ASSERT_EQ(scheduler.OutcomeOf(*p1), ProcessOutcome::kCommitted);

  // The held submission's epoch boundary recycles P1's runtime; ordering
  // P2 behind it must neither re-create P1 in the graph nor pin P2 there.
  Result<ProcessId> p2 = scheduler.SubmitHeld(def);
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(scheduler.AddExternalOrder(*p1, *p2).ok());
  EXPECT_FALSE(scheduler.InSerializationGraph(*p1));

  for (int i = 0; i < 100 && scheduler.held_undecided_count() == 0; ++i) {
    ASSERT_TRUE(scheduler.Step().ok());
  }
  ASSERT_EQ(scheduler.held_undecided_count(), 1);
  ASSERT_TRUE(scheduler.ResolveHeldCommit(*p2, /*commit=*/true).ok());
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.OutcomeOf(*p2), ProcessOutcome::kCommitted);
  EXPECT_FALSE(scheduler.InSerializationGraph(*p1));
  EXPECT_FALSE(scheduler.InSerializationGraph(*p2));
}

TEST(SchedulerReclaimTest, ReclaimedStatsMatchUnboundedRun) {
  // Same workload with and without reclamation: stats and final subsystem
  // state must be identical — reclamation only changes memory retention.
  auto run = [](bool reclaim, int64_t* store_value) {
    MiniWorld world;
    const ProcessDef* d1 = world.MakeChain("m1", "c:a p:b r:c");
    const ProcessDef* d2 = world.MakeChain("m2", "c:a c:b p:c");
    SchedulerOptions options;
    options.reclaim_terminated = reclaim;
    TransactionalProcessScheduler scheduler(options);
    Status registered = scheduler.RegisterSubsystem(world.subsystem());
    EXPECT_TRUE(registered.ok());
    for (int i = 0; i < 40; ++i) {
      Result<ProcessId> p1 = scheduler.Submit(d1);
      Result<ProcessId> p2 = scheduler.Submit(d2);
      EXPECT_TRUE(p1.ok() && p2.ok());
      Status ran = scheduler.Run();
      EXPECT_TRUE(ran.ok()) << ran.ToString();
    }
    *store_value = world.Value("a");
    return scheduler.stats();
  };
  int64_t bounded_store = 0, unbounded_store = 0;
  SchedulerStats bounded = run(true, &bounded_store);
  SchedulerStats unbounded = run(false, &unbounded_store);
  EXPECT_EQ(bounded, unbounded);
  EXPECT_EQ(bounded_store, unbounded_store);
}

TEST(SchedulerReclaimTest, NoEmitterRowNamesAPrunedProcess) {
  // Pruning drops a process from the emitter rows of its own activities'
  // services only; after every pass, no row may still name a process
  // that left the serialization graph.
  for (bool reclaim : {false, true}) {
    MiniWorld world;
    const std::vector<const ProcessDef*> defs = {
        world.MakeChain("e1", "c:a c:b p:c"),
        world.MakeChain("e2", "c:b r:d"),
        world.MakeChain("e3", "c:d p:a r:e"),
    };
    for (const ProcessDef* def : defs) ASSERT_NE(def, nullptr);

    SchedulerOptions options;
    options.reclaim_terminated = reclaim;
    TransactionalProcessScheduler scheduler(options);
    ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());

    std::vector<ProcessId> pids;
    int64_t named = 0;
    int64_t pruned = 0;
    auto check_rows = [&] {
      for (ProcessId pid : pids) {
        const bool in_rows = scheduler.InAnyEmitterRow(pid);
        if (in_rows) ++named;
        if (scheduler.InSerializationGraph(pid)) continue;
        ++pruned;
        EXPECT_FALSE(in_rows) << "pruned P" << pid.value()
                              << " still emits (reclaim=" << reclaim << ")";
      }
    };
    for (int round = 0; round < 30; ++round) {
      // Admission makes every process a graph node up front, so leaving
      // the graph means being pruned.
      for (const ProcessDef* def : defs) {
        Result<ProcessId> pid = scheduler.Submit(def);
        ASSERT_TRUE(pid.ok()) << pid.status().ToString();
        pids.push_back(*pid);
      }
      for (int pass = 0; pass < 100; ++pass) {
        Result<bool> more = scheduler.Step();
        ASSERT_TRUE(more.ok()) << more.status().ToString();
        check_rows();
        if (!*more) break;
      }
    }
    ASSERT_TRUE(scheduler.Run().ok());
    check_rows();
    // Both sides were exercised: rows named live processes, and processes
    // were pruned.
    EXPECT_GT(named, 0) << "reclaim=" << reclaim;
    EXPECT_GT(pruned, 0) << "reclaim=" << reclaim;
    EXPECT_EQ(scheduler.stats().processes_committed +
                  scheduler.stats().processes_aborted,
              90);
  }
}

}  // namespace
}  // namespace tpm
