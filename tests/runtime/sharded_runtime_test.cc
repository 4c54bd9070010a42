// End-to-end tests of the sharded runtime facade: lockstep bit-equivalence
// against solo schedulers, stats fan-in, routing errors, backpressure,
// observer relay, and free-running multi-producer soak.

#include "runtime/sharded_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "common/fingerprint.h"
#include "common/str_util.h"
#include "core/pred.h"
#include "core/recoverability.h"
#include "core/schedule.h"
#include "log/wal.h"
#include "testing/fault_injector.h"
#include "workload/sharded_world.h"

namespace tpm {
namespace {

// The canonical mixed workload: `per_tenant` each of order/consume/refill
// per tenant, interleaved across tenants in a fixed global order.
std::vector<const ProcessDef*> BuildWorkload(ShardedWorld* world,
                                             int per_tenant) {
  std::vector<const ProcessDef*> defs;
  for (int round = 0; round < per_tenant; ++round) {
    for (int t = 0; t < world->num_tenants(); ++t) {
      const ProcessDef* order = world->MakeOrderProcess(
          t, "order_t" + std::to_string(t) + "_" + std::to_string(round),
          round);
      const ProcessDef* consume = world->MakeConsumeProcess(
          t, "consume_t" + std::to_string(t) + "_" + std::to_string(round),
          round);
      const ProcessDef* refill = world->MakeRefillProcess(
          t, "refill_t" + std::to_string(t) + "_" + std::to_string(round),
          round);
      EXPECT_NE(order, nullptr);
      EXPECT_NE(consume, nullptr);
      EXPECT_NE(refill, nullptr);
      defs.push_back(order);
      defs.push_back(consume);
      defs.push_back(refill);
    }
  }
  return defs;
}

TEST(ShardedRuntimeTest, StartComputesAVerifiedPartition) {
  ShardedWorld world({.seed = 3, .num_tenants = 4});
  (void)BuildWorkload(&world, 1);  // registers the services
  ShardedRuntimeOptions options;
  options.num_shards = 4;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  ASSERT_TRUE(runtime.Start().ok());
  // Four independent tenants over four shards: the colocation groups fuse
  // each tenant into one component, and packing spreads them one per shard.
  EXPECT_EQ(runtime.partition().num_components(), 4);
  EXPECT_TRUE(
      VerifyPartition(runtime.union_spec(), runtime.partition()).ok());
  std::vector<bool> used(4, false);
  for (int t = 0; t < 4; ++t) {
    std::vector<ServiceId> services = world.TenantServices(t);
    ASSERT_FALSE(services.empty());
    const int shard =
        runtime.partition().ShardOfService(runtime.union_spec(), services[0]);
    for (ServiceId id : services) {
      EXPECT_EQ(
          runtime.partition().ShardOfService(runtime.union_spec(), id), shard)
          << "tenant " << t;
    }
    used[shard] = true;
  }
  for (int s = 0; s < 4; ++s) EXPECT_TRUE(used[s]) << "shard " << s;
  EXPECT_TRUE(runtime.Stop().ok());
}

// The tentpole equivalence property: a lockstep sharded run is
// bit-identical, shard by shard, to solo single-threaded schedulers fed
// the same per-shard submission sequences — same history fingerprint, same
// SchedulerStats.
TEST(ShardedRuntimeTest, LockstepShardsMatchSoloSchedulersBitExactly) {
  constexpr int kTenants = 4;
  constexpr int kShards = 4;

  // Sharded run.
  ShardedWorld world({.seed = 11, .num_tenants = kTenants});
  std::vector<const ProcessDef*> defs = BuildWorkload(&world, 2);
  ShardedRuntimeOptions options;
  options.num_shards = kShards;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  ASSERT_TRUE(runtime.Start().ok());

  std::vector<std::vector<std::string>> routed_names(kShards);
  for (const ProcessDef* def : defs) {
    auto ticket = runtime.Submit(def);
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    routed_names[ticket->shard].push_back(def->name());
  }
  ASSERT_TRUE(runtime.Drain().ok());
  RuntimeStats sharded_stats = runtime.Stats();
  ASSERT_TRUE(runtime.Stop().ok());

  // Which tenants each shard hosts (for the mirror's registration order).
  std::vector<std::vector<int>> tenants_of_shard(kShards);
  for (int t = 0; t < kTenants; ++t) {
    const int shard = runtime.partition().ShardOfService(
        runtime.union_spec(), world.TenantServices(t)[0]);
    ASSERT_GE(shard, 0);
    tenants_of_shard[shard].push_back(t);
  }

  for (int s = 0; s < kShards; ++s) {
    // Mirror world: identical seed and Make sequence, so identical
    // ServiceIds and def shapes; register exactly shard s's tenants, in
    // the same relative order the runtime did.
    ShardedWorld mirror({.seed = 11, .num_tenants = kTenants});
    std::vector<const ProcessDef*> mirror_defs = BuildWorkload(&mirror, 2);
    auto mirror_by_name = mirror.DefsByName();
    TransactionalProcessScheduler solo;
    for (int t : tenants_of_shard[s]) {
      ASSERT_TRUE(solo.RegisterSubsystem(mirror.kv(t)).ok());
      ASSERT_TRUE(solo.RegisterSubsystem(mirror.escrow(t)).ok());
      ASSERT_TRUE(solo.RegisterSubsystem(mirror.queue(t)).ok());
    }
    // Same per-shard submission sequence, then run to completion exactly
    // as the worker does: every pass is one Step while work remains.
    for (const std::string& name : routed_names[s]) {
      ASSERT_TRUE(solo.Submit(mirror_by_name.at(name)).ok()) << name;
    }
    if (!routed_names[s].empty()) {
      for (;;) {
        auto more = solo.Step();
        ASSERT_TRUE(more.ok());
        if (!*more) break;
      }
    }
    TransactionalProcessScheduler* sharded = runtime.shard_scheduler(s);
    ASSERT_NE(sharded, nullptr);
    EXPECT_EQ(Fnv1a(sharded->history().ToString()),
              Fnv1a(solo.history().ToString()))
        << "shard " << s << " history diverged:\n"
        << sharded->history().ToString() << "\nvs solo:\n"
        << solo.history().ToString();
    EXPECT_TRUE(sharded_stats.per_shard[s] == solo.stats())
        << "shard " << s << " stats diverged";
    // The shard's stores end where the solo run's do.
    for (int t : tenants_of_shard[s]) {
      EXPECT_EQ(world.kv(t)->StateFingerprint(),
                mirror.kv(t)->StateFingerprint())
          << "tenant " << t << " kv state diverged";
      EXPECT_EQ(world.escrow(t)->StateFingerprint(),
                mirror.escrow(t)->StateFingerprint())
          << "tenant " << t << " escrow state diverged";
      EXPECT_EQ(world.queue(t)->StateFingerprint(),
                mirror.queue(t)->StateFingerprint())
          << "tenant " << t << " queue state diverged";
    }
  }
}

// Satellite: with one shard the merged stats ARE a solo run's stats.
TEST(ShardedRuntimeTest, MergedStatsWithOneShardEqualSoloRun) {
  ShardedWorld world({.seed = 5, .num_tenants = 3});
  std::vector<const ProcessDef*> defs = BuildWorkload(&world, 2);
  ShardedRuntimeOptions options;
  options.num_shards = 1;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  ASSERT_TRUE(runtime.Start().ok());
  for (const ProcessDef* def : defs) {
    auto ticket = runtime.Submit(def);
    ASSERT_TRUE(ticket.ok());
    EXPECT_EQ(ticket->shard, 0);
  }
  ASSERT_TRUE(runtime.Drain().ok());
  RuntimeStats stats = runtime.Stats();
  ASSERT_TRUE(runtime.Stop().ok());

  ShardedWorld mirror({.seed = 5, .num_tenants = 3});
  std::vector<const ProcessDef*> mirror_defs = BuildWorkload(&mirror, 2);
  TransactionalProcessScheduler solo;
  ASSERT_TRUE(mirror.RegisterAllSolo(&solo).ok());
  for (const ProcessDef* def : mirror_defs) {
    ASSERT_TRUE(solo.Submit(def).ok());
  }
  for (;;) {
    auto more = solo.Step();
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  EXPECT_TRUE(stats.merged == solo.stats());
  ASSERT_EQ(stats.per_shard.size(), 1u);
  EXPECT_TRUE(stats.merged == stats.per_shard[0]);
  EXPECT_EQ(stats.submissions_accepted,
            static_cast<int64_t>(mirror_defs.size()));
  EXPECT_EQ(stats.submissions_rejected, 0);
}

TEST(ShardedRuntimeTest, MergeFromAddsCountersAndMaxesVirtualTime) {
  SchedulerStats a;
  a.steps = 3;
  a.virtual_time = 10;
  a.processes_committed = 2;
  SchedulerStats b;
  b.steps = 4;
  b.virtual_time = 7;
  b.processes_committed = 1;
  SchedulerStats merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  EXPECT_EQ(merged.steps, 7);
  EXPECT_EQ(merged.virtual_time, 10);  // makespan, not sum
  EXPECT_EQ(merged.processes_committed, 3);
}

// Satellite: the router's typed decision — a tenant-local footprint is
// kPinned, a supported cross-tenant one is kSplit, and an UNSUPPORTED
// spanning shape (remote compensation) is kRejected with the positioned
// diagnostic the admission error carries verbatim.
TEST(ShardedRuntimeTest, UnsupportedSpanningShapeIsPositionedAdmissionError) {
  ShardedWorld world({.seed = 7, .num_tenants = 4});
  (void)BuildWorkload(&world, 1);
  // Forward service on tenant 0 but compensation on tenant 1: a
  // sub-process must compensate locally, so the splitter refuses.
  ProcessDef bad("cross_comp");
  ActivityId c1 = bad.AddActivity(
      "enq_remote_comp", ActivityKind::kCompensatable,
      world.Enqueue(0, "orders"), world.Remove(1, "orders"));
  ActivityId p = bad.AddActivity("seal", ActivityKind::kPivot,
                                 world.KvAdd(0, "audit_v0"));
  ASSERT_TRUE(bad.AddEdge(c1, p).ok());
  ASSERT_TRUE(bad.Validate().ok());

  ShardedRuntimeOptions options;
  options.num_shards = 4;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  ASSERT_TRUE(runtime.Start().ok());

  RouterDecision rejected = runtime.router().Decide(bad);
  EXPECT_EQ(rejected.kind, RouteKind::kRejected);
  EXPECT_EQ(rejected.shard, -1);

  auto ticket = runtime.Submit(&bad);
  ASSERT_FALSE(ticket.ok());
  EXPECT_TRUE(ticket.status().IsInvalidArgument()) << ticket.status();
  // Positioned: the message names the process, the offending activity,
  // both shards, and says how to fix the spec.
  EXPECT_NE(ticket.status().message().find("cross_comp"), std::string::npos)
      << ticket.status();
  EXPECT_NE(ticket.status().message().find("enq_remote_comp"),
            std::string::npos)
      << ticket.status();
  EXPECT_NE(ticket.status().message().find("compensate locally"),
            std::string::npos)
      << ticket.status();
  EXPECT_NE(ticket.status().message().find("colocate"), std::string::npos)
      << ticket.status();
  EXPECT_EQ(runtime.Stats().submissions_rejected, 1);

  // A tenant-local process is kPinned; a supported spanning one kSplit.
  const ProcessDef* good = world.MakeOrderProcess(0, "post_error_order");
  ASSERT_NE(good, nullptr);
  RouterDecision pinned = runtime.router().Decide(*good);
  EXPECT_EQ(pinned.kind, RouteKind::kPinned);
  EXPECT_GE(pinned.shard, 0);
  EXPECT_TRUE(pinned.error.ok());
  const ProcessDef* spanning = world.MakeSpanningProcess("cross_tenant", 0, 1);
  ASSERT_NE(spanning, nullptr);
  RouterDecision split = runtime.router().Decide(*spanning);
  EXPECT_EQ(split.kind, RouteKind::kSplit);
  EXPECT_TRUE(split.error.ok());

  // A well-routed process still goes through after the rejection.
  auto ok_ticket = runtime.Submit(good);
  ASSERT_TRUE(ok_ticket.ok()) << ok_ticket.status();
  ASSERT_TRUE(runtime.Drain().ok());
  auto pid = ok_ticket->Await();
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(runtime.Stop().ok());
  EXPECT_EQ(runtime.shard_scheduler(ok_ticket->shard)->OutcomeOf(*pid),
            ProcessOutcome::kCommitted);
}

TEST(ShardedRuntimeTest, UnregisteredServiceIsNotFound) {
  ShardedWorld world({.seed = 7, .num_tenants = 2});
  (void)BuildWorkload(&world, 1);
  ShardedRuntimeOptions options;
  options.num_shards = 2;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  ASSERT_TRUE(runtime.Start().ok());
  // Variant 99 mints fresh per-variant KV services AFTER Start snapshotted
  // the union spec, so the router has never heard of them.
  const ProcessDef* late = world.MakeOrderProcess(0, "late", /*variant=*/99);
  auto ticket = runtime.Submit(late);
  ASSERT_FALSE(ticket.ok());
  EXPECT_TRUE(ticket.status().IsNotFound()) << ticket.status();
  ASSERT_TRUE(runtime.Stop().ok());
}

// Satellite: kReject backpressure sheds load once a shard queue is full.
TEST(ShardedRuntimeTest, RejectBackpressureShedsWhenQueueFull) {
  ShardedWorld world({.seed = 13, .num_tenants = 1});
  (void)BuildWorkload(&world, 1);
  ShardedRuntimeOptions options;
  options.num_shards = 1;
  options.mode = TickMode::kLockstep;  // the worker drains only on ticks
  options.queue_capacity = 2;
  options.backpressure = BackpressurePolicy::kReject;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  ASSERT_TRUE(runtime.Start().ok());

  // Variant-0 order processes reuse the services BuildWorkload registered
  // before Start, so these route fine even though the defs are new.
  const ProcessDef* a = world.MakeOrderProcess(0, "bp_a");
  const ProcessDef* b = world.MakeOrderProcess(0, "bp_b");
  const ProcessDef* c = world.MakeOrderProcess(0, "bp_c");
  ASSERT_TRUE(runtime.Submit(a).ok());
  ASSERT_TRUE(runtime.Submit(b).ok());
  auto shed = runtime.Submit(c);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted()) << shed.status();
  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.submissions_accepted, 2);
  EXPECT_EQ(stats.submissions_rejected, 1);
  // The queue drains on the next ticks and capacity frees up again.
  ASSERT_TRUE(runtime.Tick(1).ok());
  ASSERT_TRUE(runtime.Submit(c).ok());
  ASSERT_TRUE(runtime.Drain().ok());
  ASSERT_TRUE(runtime.Stop().ok());
  EXPECT_EQ(runtime.Stats().merged.processes_committed, 3);
}

class CountingObserver : public RuntimeObserver {
 public:
  void OnActivityCommitted(int shard, ProcessId, ActivityId,
                           bool inverse) override {
    ++activities_;
    if (inverse) ++inverses_;
    TouchShard(shard);
  }
  void OnProcessTerminated(int shard, ProcessId,
                           ProcessOutcome outcome) override {
    if (outcome == ProcessOutcome::kCommitted) ++committed_;
    if (outcome == ProcessOutcome::kAborted) ++aborted_;
    TouchShard(shard);
  }
  void TouchShard(int shard) { shards_seen_.insert(shard); }

  int activities_ = 0;
  int inverses_ = 0;
  int committed_ = 0;
  int aborted_ = 0;
  std::set<int> shards_seen_;
};

// Satellite: the relay fans shard-tagged events into runtime observers,
// and the counts agree with the merged stats.
TEST(ShardedRuntimeTest, ObserverRelayMatchesMergedStats) {
  ShardedWorld world({.seed = 17, .num_tenants = 4});
  std::vector<const ProcessDef*> defs = BuildWorkload(&world, 2);
  ShardedRuntimeOptions options;
  options.num_shards = 4;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  CountingObserver observer;
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  ASSERT_TRUE(runtime.AddObserver(&observer).ok());
  ASSERT_TRUE(runtime.Start().ok());
  for (const ProcessDef* def : defs) {
    ASSERT_TRUE(runtime.Submit(def).ok());
  }
  ASSERT_TRUE(runtime.Drain().ok());
  RuntimeStats stats = runtime.Stats();
  ASSERT_TRUE(runtime.Stop().ok());

  EXPECT_EQ(observer.committed_, stats.merged.processes_committed);
  EXPECT_EQ(observer.aborted_, stats.merged.processes_aborted);
  EXPECT_EQ(observer.activities_,
            stats.merged.activities_committed + stats.merged.compensations);
  EXPECT_EQ(observer.inverses_, stats.merged.compensations);
  EXPECT_EQ(static_cast<int>(observer.shards_seen_.size()), 4);
}

TEST(ShardedRuntimeTest, FreeRunningDrainReachesQuiescence) {
  ShardedWorld world({.seed = 23, .num_tenants = 4});
  std::vector<const ProcessDef*> defs = BuildWorkload(&world, 2);
  ShardedRuntimeOptions options;
  options.num_shards = 4;
  options.mode = TickMode::kFreeRunning;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  ASSERT_TRUE(runtime.Start().ok());
  std::vector<SubmitTicket> tickets;
  for (const ProcessDef* def : defs) {
    auto ticket = runtime.Submit(def);
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(*ticket);
  }
  ASSERT_TRUE(runtime.Drain().ok());
  ASSERT_TRUE(runtime.Stop().ok());
  for (auto& ticket : tickets) {
    auto pid = ticket.Await();
    ASSERT_TRUE(pid.ok()) << pid.status();
    EXPECT_EQ(runtime.shard_scheduler(ticket.shard)->OutcomeOf(*pid),
              ProcessOutcome::kCommitted);
  }
  EXPECT_TRUE(world.CheckAdtInvariants().ok());
  EXPECT_EQ(runtime.Stats().merged.processes_committed,
            static_cast<int64_t>(defs.size()));
}

// A shard whose pass fails (here: its WAL dies at the second append, the
// first activity record after the process's BEGIN) records a sticky error.
// Lockstep Tick reports it, and later Ticks and Drains report it again
// without running another pass on that shard (a later submission stays
// queued); free-running Drain reports it the same way. Every shard is idle
// after the failure — the failed one has no admitted work left and the
// other never had any — so Drain must not mistake that for quiescence.
TEST(ShardedRuntimeTest, FailedShardPassIsStickyAcrossTickAndDrain) {
  for (TickMode mode : {TickMode::kLockstep, TickMode::kFreeRunning}) {
    const bool lockstep = mode == TickMode::kLockstep;
    SCOPED_TRACE(lockstep ? "lockstep" : "free-running");
    ShardedWorld world({.seed = 41, .num_tenants = 2});
    ASSERT_NE(world.MakeOrderProcess(0, "unused"), nullptr);  // tenant 0
    const ProcessDef* doomed = world.MakeOrderProcess(1, "doomed");
    const ProcessDef* late = world.MakeOrderProcess(1, "late");
    ASSERT_NE(doomed, nullptr);
    ASSERT_NE(late, nullptr);
    ShardedRuntimeOptions options;
    options.num_shards = 2;
    options.mode = mode;
    ShardedRuntime runtime(options);
    ASSERT_TRUE(world.RegisterAll(&runtime).ok());
    ASSERT_TRUE(runtime.Start().ok());
    const int bad = runtime.partition().ShardOfService(
        runtime.union_spec(), world.TenantServices(1).front());
    ASSERT_NE(bad, runtime.partition().ShardOfService(
                       runtime.union_spec(), world.TenantServices(0).front()));
    testing::FaultInjector crash;
    crash.ArmAtSite(kWalCrashSiteAppend, 2);
    // Armed before the worker first touches the WAL: the submission below
    // hands it over through the shard's queue.
    runtime.shard_log(bad)->wal()->SetCrashPointListener(&crash);
    auto doomed_ticket = runtime.Submit(doomed);
    ASSERT_TRUE(doomed_ticket.ok());

    const Status first = lockstep ? runtime.Tick() : runtime.Drain();
    ASSERT_FALSE(first.ok());
    EXPECT_TRUE(crash.triggered());
    EXPECT_EQ(first.message().rfind("shard " + std::to_string(bad) + ": ", 0),
              0u)
        << first;
    EXPECT_EQ(runtime.Drain(), first);  // every shard idle
    auto late_ticket = runtime.Submit(late);
    ASSERT_TRUE(late_ticket.ok());
    if (lockstep) {
      EXPECT_EQ(runtime.Tick(), first);
    }
    EXPECT_EQ(runtime.Drain(), first);
    EXPECT_EQ(runtime.QueueDepths()[bad], 1u);
    // The doomed process was admitted before its shard failed; the late
    // one is failed by Stop, never admitted.
    EXPECT_TRUE(doomed_ticket->Await().ok());
    ASSERT_TRUE(runtime.Stop().ok());
    Result<ProcessId> late_pid = late_ticket->Await();
    ASSERT_FALSE(late_pid.ok());
    EXPECT_NE(late_pid.status().message().find("stopped before admission"),
              std::string::npos)
        << late_pid.status();
  }
}

// Stats() is documented thread-safe; hammering it from a polling thread
// while producers submit and shard workers publish snapshots must be
// race-free (lifecycle flags, accept/reject counters, lockstep round
// counter, agent counters, shard snapshots). TSan is the real assertion
// here; the monotonicity checks keep the snapshots honest.
TEST(ShardedRuntimeTest, StatsReadsAreSafeUnderConcurrentTraffic) {
  ShardedWorld world({.seed = 37, .num_tenants = 3});
  std::vector<const ProcessDef*> defs = BuildWorkload(&world, 3);
  ShardedRuntimeOptions options;
  options.num_shards = 3;
  options.mode = TickMode::kFreeRunning;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  ASSERT_TRUE(runtime.Start().ok());

  std::atomic<bool> done{false};
  std::thread poller([&] {
    int64_t last_accepted = 0;
    int64_t last_committed = 0;
    while (!done.load()) {
      RuntimeStats stats = runtime.Stats();
      EXPECT_GE(stats.submissions_accepted, last_accepted);
      EXPECT_GE(stats.merged.processes_committed, last_committed);
      EXPECT_GE(stats.submissions_rejected, 0);
      last_accepted = stats.submissions_accepted;
      last_committed = stats.merged.processes_committed;
      std::this_thread::yield();
    }
  });
  constexpr int kProducers = 3;
  std::atomic<size_t> next{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= defs.size()) break;
        auto ticket = runtime.Submit(defs[i]);
        EXPECT_TRUE(ticket.ok()) << ticket.status();
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(runtime.Drain().ok());
  done.store(true);
  poller.join();
  RuntimeStats stats = runtime.Stats();
  ASSERT_TRUE(runtime.Stop().ok());
  EXPECT_EQ(stats.submissions_accepted, static_cast<int64_t>(defs.size()));
  EXPECT_TRUE(world.CheckAdtInvariants().ok());
}

TEST(ShardedRuntimeTest, StopFailsLeftoverSubmissionsInsteadOfDropping) {
  ShardedWorld world({.seed = 29, .num_tenants = 1});
  (void)BuildWorkload(&world, 1);
  const ProcessDef* def = world.MakeOrderProcess(0, "leftover");
  ShardedRuntimeOptions options;
  options.num_shards = 1;
  options.mode = TickMode::kLockstep;  // never ticked: stays queued
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  ASSERT_TRUE(runtime.Start().ok());
  auto ticket = runtime.Submit(def);
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(runtime.Stop().ok());
  auto pid = ticket->Await();
  ASSERT_FALSE(pid.ok());
  EXPECT_TRUE(pid.status().IsUnavailable()) << pid.status();
}

// Free-running multi-producer soak: concurrent Submit from several
// threads, fresh seeds per iteration (override via TPM_RUNTIME_SEED_BASE /
// TPM_RUNTIME_SOAK_ITERS for the CI soak), full correctness audit after
// quiescence: PRED + Proc-REC per shard plus the ADT invariants.
TEST(ShardedRuntimeSoakTest, ConcurrentProducersPreserveAllInvariants) {
  const char* base_env = std::getenv("TPM_RUNTIME_SEED_BASE");
  const char* iters_env = std::getenv("TPM_RUNTIME_SOAK_ITERS");
  const uint64_t seed_base =
      base_env != nullptr ? std::strtoull(base_env, nullptr, 10) : 1234;
  const int iterations =
      iters_env != nullptr ? std::atoi(iters_env) : 2;

  for (int iter = 0; iter < iterations; ++iter) {
    const uint64_t seed = seed_base + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ShardedWorld world(
        {.seed = seed, .num_tenants = 6, .queue_initial_tokens = 32});
    std::vector<const ProcessDef*> defs = BuildWorkload(&world, 4);
    ShardedRuntimeOptions options;
    options.num_shards = 3;
    options.mode = TickMode::kFreeRunning;
    options.queue_capacity = 16;  // small, so backpressure engages
    ShardedRuntime runtime(options);
    ASSERT_TRUE(world.RegisterAll(&runtime).ok());
    ASSERT_TRUE(runtime.Start().ok());

    constexpr int kProducers = 4;
    std::atomic<size_t> next{0};
    std::atomic<int> submit_failures{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= defs.size()) break;
          auto ticket = runtime.Submit(defs[i]);
          if (!ticket.ok() || !ticket->Await().ok()) {
            submit_failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : producers) t.join();
    ASSERT_TRUE(runtime.Drain().ok());
    RuntimeStats stats = runtime.Stats();
    ASSERT_TRUE(runtime.Stop().ok());

    EXPECT_EQ(submit_failures.load(), 0);
    EXPECT_EQ(stats.submissions_accepted,
              static_cast<int64_t>(defs.size()));
    EXPECT_EQ(stats.merged.processes_committed +
                  stats.merged.processes_aborted,
              static_cast<int64_t>(defs.size()));
    EXPECT_TRUE(world.CheckAdtInvariants().ok());
    for (int s = 0; s < options.num_shards; ++s) {
      TransactionalProcessScheduler* scheduler = runtime.shard_scheduler(s);
      auto pred = IsPRED(scheduler->history(), scheduler->conflict_spec());
      ASSERT_TRUE(pred.ok());
      EXPECT_TRUE(*pred) << "shard " << s << " history not PRED";
      EXPECT_TRUE(IsProcessRecoverable(
          CommittedProjection(scheduler->history()),
          scheduler->conflict_spec()))
          << "shard " << s << " not Proc-REC";
    }
    if (::testing::Test::HasFailure()) {
      // CI uploads this file so the failing seed survives the run; rerun
      // locally with TPM_RUNTIME_SEED_BASE=<seed> TPM_RUNTIME_SOAK_ITERS=1.
      std::string path = testing::WriteFailingSeed(
          "sharded_runtime_soak", iter, "ShardedRuntimeSoakTest",
          StrCat("TPM_RUNTIME_SEED_BASE=", seed,
                 " TPM_RUNTIME_SOAK_ITERS=1 ctest -R ShardedRuntimeSoak"));
      std::cerr << "soak failed at seed " << seed << "; reproducer written to "
                << path << "\n";
      break;
    }
  }
}

}  // namespace
}  // namespace tpm
