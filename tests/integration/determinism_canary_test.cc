// Determinism canary: every world the equivalence and recovery suites
// lean on must be a pure function of its seed. Each scenario runs the
// same seeded workload twice into fresh schedulers and compares the
// history fingerprint and the full SchedulerStats fingerprint. The
// lockstep-equals-solo and restart-equals-uncrashed tests compare
// fingerprints across runs, so they rest on this property — if any world
// drifts, this test names it before those fail with an opaque mismatch.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "common/str_util.h"
#include "core/scheduler.h"
#include "runtime/sharded_runtime.h"
#include "workload/fault_workload.h"
#include "workload/process_generator.h"
#include "workload/semantic_world.h"
#include "workload/sharded_world.h"

namespace tpm {
namespace {

// One run's identity: the emitted history plus every stats counter.
struct RunDigest {
  uint64_t history = 0;
  uint64_t stats = 0;

  bool operator==(const RunDigest& other) const {
    return history == other.history && stats == other.stats;
  }
};

std::ostream& operator<<(std::ostream& os, const RunDigest& d) {
  return os << "{history=" << d.history << " stats=" << d.stats << "}";
}

RunDigest DigestOf(const TransactionalProcessScheduler& scheduler) {
  RunDigest d;
  d.history = Fnv1a(scheduler.history().ToString());
  d.stats = scheduler.stats().Fingerprint();
  return d;
}

// --- KV world: seeded random process generation over raw KV subsystems.

RunDigest RunKvWorld(uint64_t seed) {
  SyntheticUniverse universe(3, 6, seed);
  ProcessShape shape;
  shape.items_per_process = 3;
  shape.nested_probability = 0.3;
  ProcessGenerator generator(&universe, shape, seed);

  TransactionalProcessScheduler scheduler{SchedulerOptions{}};
  EXPECT_TRUE(universe.RegisterAll(&scheduler).ok());

  std::vector<const ProcessDef*> defs;
  for (int i = 0; i < 24; ++i) {
    auto def = generator.Generate(StrCat("kv", i));
    if (def.ok()) defs.push_back(*def);
  }
  EXPECT_FALSE(defs.empty());
  for (const ProcessDef* def : defs) {
    auto pid = scheduler.Submit(def);
    EXPECT_TRUE(pid.ok()) << pid.status();
  }
  EXPECT_TRUE(scheduler.Run().ok());
  return DigestOf(scheduler);
}

// --- Semantic world: escrow + queue + KV under operation commutativity.

// `kv_failure` > 0 makes every KV service abort with that probability,
// drawn from the KV subsystem's seeded RNG, so the KV seed steers the run.
RunDigest RunSemanticWorld(uint64_t seed, double kv_failure = 0.0) {
  SemanticWorldOptions world_options;
  world_options.seed = seed;
  world_options.escrow_initial = 20;
  world_options.queue_initial_tokens = 5;
  SemanticWorld world(world_options);

  std::vector<const ProcessDef*> defs;
  int variant = 0;
  for (int i = 0; i < 4; ++i) {
    defs.push_back(world.MakeOrderProcess(StrCat("order", i), variant++));
    defs.push_back(world.MakeConsumeProcess(StrCat("consume", i), variant++));
    defs.push_back(world.MakeRefillProcess(StrCat("refill", i), variant++));
  }
  if (kv_failure > 0) {
    for (ServiceId id : world.kv()->services().AllIds()) {
      world.kv()->SetFailureProbability(id, kv_failure);
    }
  }

  SchedulerOptions options;
  options.clock = world.clock();
  TransactionalProcessScheduler scheduler(options);
  EXPECT_TRUE(world.RegisterAll(&scheduler).ok());
  for (const ProcessDef* def : defs) {
    EXPECT_NE(def, nullptr);
    auto pid = scheduler.Submit(def);
    EXPECT_TRUE(pid.ok()) << pid.status();
  }
  EXPECT_TRUE(scheduler.Run().ok());
  return DigestOf(scheduler);
}

// --- Fault-domain world: seeded transient aborts, latency and degraded
// ◁-alternative branches. The fault draws come from seeded RNGs on the
// shared virtual clock, so two identical runs must fault identically.

RunDigest RunFaultDomainWorld(uint64_t seed) {
  FaultDomainOptions world_options;
  world_options.num_subsystems = 3;
  world_options.seed = seed;
  world_options.profile.transient_abort_probability = 0.15;
  world_options.profile.latency_ticks = 1;
  FaultDomainWorld world(world_options);

  std::vector<const ProcessDef*> defs;
  defs.push_back(world.MakeAlternativeProcess("alt0", 0, 1, 2, 0));
  defs.push_back(world.MakeAlternativeProcess("alt1", 1, 2, 0, 1));
  defs.push_back(world.MakeAlternativeProcess("alt2", 2, 0, 1, 2));
  defs.push_back(world.MakeChainProcess("chain0", 0, 3, 3));
  defs.push_back(world.MakeChainProcess("chain1", 1, 2, 4));

  SchedulerOptions options;
  options.clock = world.clock();
  options.park_timeout_ticks = 400;
  TransactionalProcessScheduler scheduler(options);
  EXPECT_TRUE(world.RegisterAll(&scheduler).ok());
  for (const ProcessDef* def : defs) {
    EXPECT_NE(def, nullptr);
    auto pid = scheduler.Submit(def);
    EXPECT_TRUE(pid.ok()) << pid.status();
  }
  EXPECT_TRUE(scheduler.Run(300000).ok());
  return DigestOf(scheduler);
}

// --- Sharded world: the full multi-threaded runtime in lockstep mode.
// Folds every shard's history into one digest; lockstep execution is the
// mode the runtime equivalence tests compare fingerprints under.

RunDigest RunShardedWorld(uint64_t seed, double kv_failure = 0.0) {
  constexpr int kTenants = 4;
  constexpr int kShards = 2;
  ShardedWorld world({.seed = seed, .num_tenants = kTenants});

  std::vector<const ProcessDef*> defs;
  for (int round = 0; round < 2; ++round) {
    for (int t = 0; t < kTenants; ++t) {
      defs.push_back(world.MakeOrderProcess(
          t, StrCat("order_t", t, "_", round), round));
      defs.push_back(world.MakeConsumeProcess(
          t, StrCat("consume_t", t, "_", round), round));
      defs.push_back(world.MakeRefillProcess(
          t, StrCat("refill_t", t, "_", round), round));
    }
  }
  if (kv_failure > 0) {
    for (int t = 0; t < kTenants; ++t) {
      for (ServiceId id : world.kv(t)->services().AllIds()) {
        world.kv(t)->SetFailureProbability(id, kv_failure);
      }
    }
  }

  ShardedRuntimeOptions options;
  options.num_shards = kShards;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  EXPECT_TRUE(world.RegisterAll(&runtime).ok());
  EXPECT_TRUE(runtime.Start().ok());
  for (const ProcessDef* def : defs) {
    EXPECT_NE(def, nullptr);
    auto ticket = runtime.Submit(def);
    EXPECT_TRUE(ticket.ok()) << ticket.status();
  }
  EXPECT_TRUE(runtime.Drain().ok());
  RuntimeStats stats = runtime.Stats();
  EXPECT_TRUE(runtime.Stop().ok());

  RunDigest d;
  d.history = kFnv1aOffsetBasis;
  for (int s = 0; s < kShards; ++s) {
    d.history = FingerprintCombine(
        d.history,
        Fnv1a(runtime.shard_scheduler(s)->history().ToString()));
    d.stats = FingerprintCombine(d.stats,
                                 stats.per_shard[s].Fingerprint());
  }
  return d;
}

// Each world runs twice per seed; any drift fails loudly with the world
// named. A canary failure here means some input other than the seed leaked
// into scheduling (wall clock, address-dependent ordering, uninitialised
// state) — fix that before debugging anything built on determinism.

constexpr uint64_t kSeeds[] = {3, 11, 1999};

TEST(DeterminismCanaryTest, KvWorldIsAPureFunctionOfItsSeed) {
  for (uint64_t seed : kSeeds) {
    EXPECT_EQ(RunKvWorld(seed), RunKvWorld(seed))
        << "KV world (SyntheticUniverse + ProcessGenerator) is "
           "nondeterministic at seed "
        << seed;
  }
}

TEST(DeterminismCanaryTest, SemanticWorldIsAPureFunctionOfItsSeed) {
  for (uint64_t seed : kSeeds) {
    EXPECT_EQ(RunSemanticWorld(seed), RunSemanticWorld(seed))
        << "semantic world (escrow/queue/KV) is nondeterministic at seed "
        << seed;
  }
}

TEST(DeterminismCanaryTest, FaultDomainWorldIsAPureFunctionOfItsSeed) {
  for (uint64_t seed : kSeeds) {
    EXPECT_EQ(RunFaultDomainWorld(seed), RunFaultDomainWorld(seed))
        << "fault-domain world (seeded faults + alternatives) is "
           "nondeterministic at seed "
        << seed;
  }
}

TEST(DeterminismCanaryTest, ShardedWorldIsAPureFunctionOfItsSeed) {
  for (uint64_t seed : kSeeds) {
    EXPECT_EQ(RunShardedWorld(seed), RunShardedWorld(seed))
        << "sharded world (lockstep multi-threaded runtime) is "
           "nondeterministic at seed "
        << seed;
  }
}

// The canaries above compare a run with itself, so they cannot see a
// refactor that changes what a world does. These goldens pin the two
// mixed-ADT worlds across commits: service ids, subsystem ids, names and
// the escrow/queue semantics all feed the history and the stats. With no
// faults the seed does not reach these worlds, so the flaky runs add KV
// failure injection, which draws from the KV seeds (`seed` in the semantic
// world, `seed * 97 + t` per sharded tenant). Regenerate only for an
// intended behaviour change.
constexpr double kGoldenKvFailure = 0.2;

struct WorldGolden {
  uint64_t seed;
  RunDigest semantic, semantic_flaky;
  RunDigest sharded, sharded_flaky;
};

constexpr RunDigest kSemanticNoFault = {1440028708728308527ULL,
                                        17874205481292922686ULL};
constexpr RunDigest kShardedNoFault = {17410947672989633322ULL,
                                       1901581064386568341ULL};
constexpr WorldGolden kWorldGoldens[] = {
    {3,
     kSemanticNoFault,
     {5341445545335282527ULL, 15048803828732253332ULL},
     kShardedNoFault,
     {16876721696500575606ULL, 14929124459144942555ULL}},
    {11,
     kSemanticNoFault,
     {17510762461950927579ULL, 6387381972849924953ULL},
     kShardedNoFault,
     {11659729348641695908ULL, 11807030705151292114ULL}},
    {1999,
     kSemanticNoFault,
     {3962080059982401192ULL, 15876786174037754810ULL},
     kShardedNoFault,
     {6510869758404111799ULL, 11382637258924114264ULL}},
};

TEST(DeterminismCanaryTest, SemanticWorldMatchesGoldens) {
  for (const WorldGolden& g : kWorldGoldens) {
    EXPECT_EQ(RunSemanticWorld(g.seed), g.semantic) << "seed " << g.seed;
    EXPECT_EQ(RunSemanticWorld(g.seed, kGoldenKvFailure), g.semantic_flaky)
        << "flaky KV, seed " << g.seed;
  }
}

TEST(DeterminismCanaryTest, ShardedWorldMatchesGoldens) {
  for (const WorldGolden& g : kWorldGoldens) {
    EXPECT_EQ(RunShardedWorld(g.seed), g.sharded) << "seed " << g.seed;
    EXPECT_EQ(RunShardedWorld(g.seed, kGoldenKvFailure), g.sharded_flaky)
        << "flaky KV, seed " << g.seed;
  }
}

// Different seeds must actually produce different runs — otherwise the
// canary above is vacuously green (e.g. a world ignoring its seed).
TEST(DeterminismCanaryTest, SeedsActuallySteerTheWorlds) {
  EXPECT_NE(RunKvWorld(3), RunKvWorld(1999)) << "KV world ignores its seed";
  EXPECT_NE(RunFaultDomainWorld(3).history,
            RunFaultDomainWorld(1999).history)
      << "fault-domain world ignores its seed";
}

}  // namespace
}  // namespace tpm
