#include "subsystem/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "workload/semantic_world.h"
#include "workload/sharded_world.h"

namespace tpm {
namespace {

ServiceRequest Req(int64_t param = 0) {
  return ServiceRequest{ProcessId(1), ActivityId(1), param};
}

TEST(ServiceRegistryTest, RegisterAndLookup) {
  ServiceRegistry registry;
  ASSERT_TRUE(registry.Register(MakePutService(ServiceId(1), "put", "k")).ok());
  EXPECT_TRUE(registry.Has(ServiceId(1)));
  auto def = registry.Lookup(ServiceId(1));
  ASSERT_TRUE(def.ok());
  EXPECT_EQ((*def)->name, "put");
  EXPECT_TRUE(registry.Lookup(ServiceId(9)).status().IsNotFound());
}

TEST(ServiceRegistryTest, DuplicateAndInvalidRejected) {
  ServiceRegistry registry;
  ASSERT_TRUE(registry.Register(MakePutService(ServiceId(1), "put", "k")).ok());
  EXPECT_EQ(registry.Register(MakePutService(ServiceId(1), "put2", "k")).code(),
            StatusCode::kAlreadyExists);
  ServiceDef no_body;
  no_body.id = ServiceId(2);
  EXPECT_TRUE(registry.Register(no_body).IsInvalidArgument());
  ServiceDef bad_id = MakePutService(ServiceId(3), "x", "k");
  bad_id.id = ServiceId();
  EXPECT_TRUE(registry.Register(bad_id).IsInvalidArgument());
}

TEST(ServiceRegistryTest, DeriveConflictsFromReadWriteSets) {
  ServiceRegistry registry;
  ASSERT_TRUE(registry.Register(MakePutService(ServiceId(1), "w1", "k")).ok());
  ASSERT_TRUE(registry.Register(MakeReadService(ServiceId(2), "r1", "k")).ok());
  ASSERT_TRUE(
      registry.Register(MakeReadService(ServiceId(3), "r2", "k")).ok());
  ASSERT_TRUE(
      registry.Register(MakePutService(ServiceId(4), "w2", "other")).ok());
  ConflictSpec spec;
  registry.DeriveConflicts(&spec);
  // Writer conflicts with itself, both readers; readers do not conflict
  // with each other; the other-key writer conflicts with nobody else.
  EXPECT_TRUE(spec.ServicesConflict(ServiceId(1), ServiceId(1)));
  EXPECT_TRUE(spec.ServicesConflict(ServiceId(1), ServiceId(2)));
  EXPECT_TRUE(spec.ServicesConflict(ServiceId(1), ServiceId(3)));
  EXPECT_FALSE(spec.ServicesConflict(ServiceId(2), ServiceId(3)));
  EXPECT_FALSE(spec.ServicesConflict(ServiceId(1), ServiceId(4)));
  // Effect-free marking of read services propagates.
  EXPECT_TRUE(spec.IsEffectFreeService(ServiceId(2)));
  EXPECT_FALSE(spec.IsEffectFreeService(ServiceId(1)));
}

// --- Key-indexed derivation vs. the pairwise definition. ---

bool SetsIntersect(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  for (const std::string& key : a) {
    if (std::find(b.begin(), b.end(), key) != b.end()) return true;
  }
  return false;
}

// Oracle: the derivation as the definition states it. Every pair of
// services is tested, a in ascending id order and b >= a ascending, then
// the op-kind pass; DeriveConflicts must issue the same spec mutations.
void DeriveConflictsReference(const ServiceRegistry& registry,
                              ConflictSpec* spec) {
  const std::vector<ServiceId> ids = registry.AllIds();
  for (size_t i = 0; i < ids.size(); ++i) {
    const ServiceDef& a = **registry.Lookup(ids[i]);
    if (a.effect_free) spec->MarkEffectFree(a.id);
    for (size_t j = i; j < ids.size(); ++j) {
      const ServiceDef& b = **registry.Lookup(ids[j]);
      if (SetsIntersect(a.write_set, b.write_set) ||
          SetsIntersect(a.write_set, b.read_set) ||
          SetsIntersect(a.read_set, b.write_set)) {
        spec->AddConflict(a.id, b.id);
      }
    }
  }
  for (ServiceId id : ids) {
    const ServiceDef& def = **registry.Lookup(id);
    if (def.op_kind.empty()) continue;
    const int op = spec->RegisterOpKind(def.op_kind);
    spec->BindOp(id, op);
    if (!def.inverse_op_kind.empty()) {
      spec->SetInverseOp(op, spec->RegisterOpKind(def.inverse_op_kind));
    }
    for (const std::string& other : def.commutes_with) {
      spec->AddCommutingOps(op, spec->RegisterOpKind(other));
    }
  }
}

void ExpectSameSpec(const ConflictSpec& actual, const ConflictSpec& expected) {
  ASSERT_EQ(actual.NumServices(), expected.NumServices());
  for (size_t i = 0; i < expected.NumServices(); ++i) {
    ASSERT_EQ(actual.ServiceAt(i), expected.ServiceAt(i)) << "index " << i;
  }
  for (size_t i = 0; i < expected.NumServices(); ++i) {
    const ServiceId id = expected.ServiceAt(i);
    EXPECT_EQ(actual.PartnersOf(id), expected.PartnersOf(id)) << id;
    EXPECT_EQ(actual.IsEffectFreeService(id), expected.IsEffectFreeService(id))
        << id;
    EXPECT_EQ(actual.OpOf(id), expected.OpOf(id)) << id;
  }
  EXPECT_EQ(actual.num_conflict_pairs(), expected.num_conflict_pairs());
  EXPECT_EQ(actual.ConflictPairs(), expected.ConflictPairs());
  ASSERT_EQ(actual.NumOpKinds(), expected.NumOpKinds());
  for (size_t op = 0; op < expected.NumOpKinds(); ++op) {
    EXPECT_EQ(actual.OpKindName(static_cast<int>(op)),
              expected.OpKindName(static_cast<int>(op)));
    EXPECT_EQ(actual.InverseOf(static_cast<int>(op)),
              expected.InverseOf(static_cast<int>(op)));
  }
  EXPECT_EQ(actual.CommutingOpPairs(), expected.CommutingOpPairs());
}

// Derives `registries`, in order, into one spec both ways and compares.
void ExpectDerivationMatchesReference(
    const std::vector<const ServiceRegistry*>& registries) {
  ConflictSpec indexed;
  ConflictSpec reference;
  for (const ServiceRegistry* registry : registries) {
    registry->DeriveConflicts(&indexed);
    DeriveConflictsReference(*registry, &reference);
  }
  ExpectSameSpec(indexed, reference);
}

ServiceDef KeyedService(int64_t id, std::vector<std::string> reads,
                        std::vector<std::string> writes) {
  ServiceDef def;
  def.id = ServiceId(id);
  def.name = StrCat("s", id);
  def.read_set = std::move(reads);
  def.write_set = std::move(writes);
  def.body = [](KvStore*, const ServiceRequest&, int64_t* ret) {
    *ret = 0;
    return Status::OK();
  };
  return def;
}

// Services with random ids registered in random order, random (possibly
// empty, possibly repeating) read/write sets over a small key pool, and
// random op-kind metadata.
ServiceRegistry RandomRegistry(uint64_t seed, int num_services, int num_keys) {
  Rng rng(seed);
  std::set<int64_t> ids;
  while (static_cast<int>(ids.size()) < num_services) {
    ids.insert(rng.NextInRange(1, num_services * 8));
  }
  std::vector<int64_t> order(ids.begin(), ids.end());
  rng.Shuffle(&order);
  const std::vector<std::string> ops = {"inc", "dec", "enq", "deq"};
  ServiceRegistry registry;
  for (int64_t id : order) {
    auto keys = [&](int max_size) {
      std::vector<std::string> set;
      const int64_t size = rng.NextInRange(0, max_size);
      for (int64_t k = 0; k < size; ++k) {
        set.push_back(StrCat("k", rng.NextBounded(num_keys)));
      }
      return set;
    };
    ServiceDef def = KeyedService(id, keys(3), keys(2));
    def.effect_free = def.write_set.empty() && rng.NextBool(0.5);
    if (rng.NextBool(0.3)) {
      def.op_kind = ops[rng.NextIndex(ops.size())];
      if (rng.NextBool(0.5)) def.commutes_with.push_back(def.op_kind);
      if (rng.NextBool(0.3)) {
        def.commutes_with.push_back(ops[rng.NextIndex(ops.size())]);
      }
      if (rng.NextBool(0.3)) {
        def.inverse_op_kind = ops[rng.NextIndex(ops.size())];
      }
    }
    EXPECT_TRUE(registry.Register(std::move(def)).ok());
  }
  return registry;
}

TEST(DeriveConflictsEquivalenceTest, RandomRegistries) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    const int num_services = 5 + static_cast<int>(seed % 7) * 20;
    const int num_keys = 1 + static_cast<int>(seed % 5) * 6;
    ServiceRegistry registry = RandomRegistry(seed, num_services, num_keys);
    ExpectDerivationMatchesReference({&registry});
  }
}

TEST(DeriveConflictsEquivalenceTest, SelfConflictOnReadAndWrittenKey) {
  ServiceRegistry registry;
  ASSERT_TRUE(registry.Register(KeyedService(1, {"k"}, {})).ok());
  ASSERT_TRUE(registry.Register(KeyedService(2, {"k"}, {"k"})).ok());
  ExpectDerivationMatchesReference({&registry});
  ConflictSpec spec;
  registry.DeriveConflicts(&spec);
  EXPECT_TRUE(spec.ServicesConflict(ServiceId(2), ServiceId(2)));
  EXPECT_TRUE(spec.ServicesConflict(ServiceId(1), ServiceId(2)));
  EXPECT_FALSE(spec.ServicesConflict(ServiceId(1), ServiceId(1)));
}

TEST(DeriveConflictsEquivalenceTest, KeyListedTwiceInOneSet) {
  ServiceRegistry registry;
  ASSERT_TRUE(registry.Register(KeyedService(1, {"k", "k"}, {"k", "k"})).ok());
  ASSERT_TRUE(registry.Register(KeyedService(2, {"k", "k"}, {})).ok());
  ASSERT_TRUE(registry.Register(KeyedService(3, {}, {"j", "k", "j"})).ok());
  ExpectDerivationMatchesReference({&registry});
  ConflictSpec spec;
  registry.DeriveConflicts(&spec);
  // Each pair once, however often the key repeats: 1-1, 1-2, 1-3, 3-3,
  // 2-3.
  EXPECT_EQ(spec.num_conflict_pairs(), 5u);
}

TEST(DeriveConflictsEquivalenceTest, EmptyReadAndWriteSets) {
  ServiceRegistry registry;
  ASSERT_TRUE(registry.Register(KeyedService(1, {}, {})).ok());
  ASSERT_TRUE(registry.Register(KeyedService(2, {}, {})).ok());
  ServiceDef pure = KeyedService(3, {}, {});
  pure.effect_free = true;
  ASSERT_TRUE(registry.Register(std::move(pure)).ok());
  ExpectDerivationMatchesReference({&registry});
  ConflictSpec spec;
  registry.DeriveConflicts(&spec);
  EXPECT_EQ(spec.num_conflict_pairs(), 0u);
  EXPECT_TRUE(spec.IsEffectFreeService(ServiceId(3)));
}

TEST(DeriveConflictsEquivalenceTest, ReadOnlySharingGivesNoConflict) {
  ServiceRegistry registry;
  for (int64_t id = 1; id <= 6; ++id) {
    ASSERT_TRUE(registry.Register(KeyedService(id, {"k", "j"}, {})).ok());
  }
  ExpectDerivationMatchesReference({&registry});
  ConflictSpec spec;
  registry.DeriveConflicts(&spec);
  EXPECT_EQ(spec.num_conflict_pairs(), 0u);
}

TEST(DeriveConflictsEquivalenceTest, OneKeySharedByManyWriters) {
  ServiceRegistry registry;
  constexpr int64_t kWriters = 50;
  ASSERT_TRUE(registry.Register(KeyedService(1, {"hot"}, {})).ok());
  for (int64_t id = kWriters + 1; id >= 2; --id) {
    ASSERT_TRUE(registry.Register(KeyedService(id, {}, {"hot"})).ok());
  }
  ExpectDerivationMatchesReference({&registry});
  ConflictSpec spec;
  registry.DeriveConflicts(&spec);
  // Every writer pair including self-pairs, plus each writer with the
  // reader.
  EXPECT_EQ(spec.num_conflict_pairs(),
            static_cast<size_t>(kWriters * (kWriters + 1) / 2 + kWriters));
}

TEST(DeriveConflictsEquivalenceTest, SeveralRegistriesIntoOneSpec) {
  ServiceRegistry first = RandomRegistry(7, 60, 8);
  ServiceRegistry second = RandomRegistry(8, 45, 5);
  ServiceRegistry third;
  ASSERT_TRUE(third.Register(KeyedService(3, {"k0"}, {"k0"})).ok());
  ExpectDerivationMatchesReference({&first, &second, &third});
}

TEST(DeriveConflictsEquivalenceTest, ShardedWorldRegistries) {
  ShardedWorldOptions options;
  options.num_tenants = 3;
  ShardedWorld world(options);
  for (int t = 0; t < world.num_tenants(); ++t) {
    for (int variant = 0; variant < 3; ++variant) {
      ASSERT_NE(world.MakeOrderProcess(t, StrCat("order", t, "_", variant),
                                       variant),
                nullptr);
      ASSERT_NE(world.MakeConsumeProcess(
                    t, StrCat("consume", t, "_", variant), variant),
                nullptr);
      ASSERT_NE(world.MakeRefillProcess(t, StrCat("refill", t, "_", variant),
                                        variant),
                nullptr);
    }
  }
  ASSERT_NE(world.MakeSpanningProcess("span", 0, 1), nullptr);
  ASSERT_NE(world.MakeSpanningAltProcess("span_alt", 0, 1, 2), nullptr);
  std::vector<const ServiceRegistry*> registries;
  for (int t = 0; t < world.num_tenants(); ++t) {
    registries.push_back(&world.kv(t)->services());
    registries.push_back(&world.escrow(t)->services());
    registries.push_back(&world.queue(t)->services());
  }
  ExpectDerivationMatchesReference(registries);
}

TEST(DeriveConflictsEquivalenceTest, SemanticWorldRegistries) {
  SemanticWorld world(SemanticWorldOptions{});
  for (int variant = 0; variant < 4; ++variant) {
    ASSERT_NE(world.MakeOrderProcess(StrCat("order", variant), variant),
              nullptr);
    ASSERT_NE(world.MakeConsumeProcess(StrCat("consume", variant), variant),
              nullptr);
    ASSERT_NE(world.MakeRefillProcess(StrCat("refill", variant), variant),
              nullptr);
  }
  ExpectDerivationMatchesReference({&world.kv()->services(),
                                    &world.escrow()->services(),
                                    &world.queue()->services()});
}

TEST(ServiceBodiesTest, PutReturnsPreviousValue) {
  KvStore store;
  store.Put("k", 7);
  auto def = MakePutService(ServiceId(1), "put", "k");
  int64_t ret = 0;
  ASSERT_TRUE(def.body(&store, Req(9), &ret).ok());
  EXPECT_EQ(ret, 7);
  EXPECT_EQ(store.Get("k"), 9);
}

TEST(ServiceBodiesTest, AddAndSubAreInverse) {
  KvStore store;
  auto add = MakeAddService(ServiceId(1), "add", "k");
  auto sub = MakeSubService(ServiceId(2), "sub", "k");
  int64_t ret = 0;
  ASSERT_TRUE(add.body(&store, Req(5), &ret).ok());
  EXPECT_EQ(store.Get("k"), 5);
  ASSERT_TRUE(sub.body(&store, Req(5), &ret).ok());
  EXPECT_EQ(store.Get("k"), 0);
  // Default amount is 1 when param == 0.
  ASSERT_TRUE(add.body(&store, Req(0), &ret).ok());
  EXPECT_EQ(store.Get("k"), 1);
}

TEST(ServiceBodiesTest, ReadIsEffectFree) {
  KvStore store;
  store.Put("k", 3);
  auto read = MakeReadService(ServiceId(1), "read", "k");
  EXPECT_TRUE(read.effect_free);
  uint64_t version = store.version();
  int64_t ret = 0;
  ASSERT_TRUE(read.body(&store, Req(), &ret).ok());
  EXPECT_EQ(ret, 3);
  EXPECT_EQ(store.version(), version);
}

TEST(RetryPolicyTest, DefaultScheduleIsLinear) {
  RetryPolicy policy;
  policy.backoff_base_ticks = 3;
  EXPECT_EQ(policy.BackoffTicks(1), 3);
  EXPECT_EQ(policy.BackoffTicks(2), 6);
  EXPECT_EQ(policy.BackoffTicks(3), 9);
}

TEST(RetryPolicyTest, ZeroBaseOrBadAttemptYieldsNoWait) {
  RetryPolicy policy;
  EXPECT_EQ(policy.BackoffTicks(1), 0);
  policy.backoff_base_ticks = 5;
  EXPECT_EQ(policy.BackoffTicks(0), 0);
  EXPECT_EQ(policy.BackoffTicks(-1), 0);
}

TEST(RetryPolicyTest, ExponentialScheduleDoubles) {
  RetryPolicy policy;
  policy.backoff_base_ticks = 2;
  policy.exponential = true;
  EXPECT_EQ(policy.BackoffTicks(1), 2);
  EXPECT_EQ(policy.BackoffTicks(2), 4);
  EXPECT_EQ(policy.BackoffTicks(3), 8);
  EXPECT_EQ(policy.BackoffTicks(4), 16);
}

TEST(RetryPolicyTest, CapBoundsBothSchedules) {
  RetryPolicy policy;
  policy.backoff_base_ticks = 2;
  policy.exponential = true;
  policy.max_backoff_ticks = 10;
  EXPECT_EQ(policy.BackoffTicks(3), 8);
  EXPECT_EQ(policy.BackoffTicks(4), 10);
  EXPECT_EQ(policy.BackoffTicks(40), 10);
  policy.exponential = false;
  EXPECT_EQ(policy.BackoffTicks(40), 10);
}

TEST(RetryPolicyTest, HugeExponentDoesNotOverflow) {
  RetryPolicy policy;
  policy.backoff_base_ticks = 3;
  policy.exponential = true;
  const int64_t wait = policy.BackoffTicks(500);
  EXPECT_GT(wait, 0);
  EXPECT_LE(wait, std::numeric_limits<int64_t>::max());
}

TEST(RetryPolicyTest, FullJitterDrawsWithinEnvelopeDeterministically) {
  RetryPolicy policy;
  policy.backoff_base_ticks = 4;
  policy.exponential = true;
  policy.full_jitter = true;
  Rng rng_a(123), rng_b(123);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const int64_t envelope = 4 * (int64_t{1} << (attempt - 1));
    const int64_t wait = policy.BackoffTicks(attempt, &rng_a);
    EXPECT_GE(wait, 0);
    EXPECT_LE(wait, envelope);
    // Same seed, same schedule: jitter stays reproducible.
    EXPECT_EQ(policy.BackoffTicks(attempt, &rng_b), wait);
  }
  // Without an RNG the jitter flag is inert.
  EXPECT_EQ(policy.BackoffTicks(2), 8);
}

TEST(ServiceBodiesTest, EraseReturnsPrevious) {
  KvStore store;
  store.Put("k", 4);
  auto erase = MakeEraseService(ServiceId(1), "erase", "k");
  int64_t ret = 0;
  ASSERT_TRUE(erase.body(&store, Req(), &ret).ok());
  EXPECT_EQ(ret, 4);
  EXPECT_FALSE(store.Exists("k"));
}

}  // namespace
}  // namespace tpm
