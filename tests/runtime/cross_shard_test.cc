// Cross-shard processes end to end: the splitter's plans, the
// coordination agent's distributed commit over the held-vote protocol,
// composite weak/strong orders, ◁ tails across shards, the global merged
// projection (PRED + Proc-REC), and lockstep determinism with spanning
// processes in the mix.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "common/str_util.h"
#include "core/pred.h"
#include "core/recoverability.h"
#include "core/schedule.h"
#include "runtime/cross_shard_agent.h"
#include "runtime/global_projection.h"
#include "runtime/sharded_runtime.h"
#include "testing/fault_injector.h"
#include "workload/sharded_world.h"

namespace tpm {
namespace {

// The mixed workload with spanning processes sprinkled in: per tenant
// round-robin of order/consume/refill, plus `span_pct`% spanning
// processes rotating through the three cross-shard shapes. The spanning
// defs are created AFTER the tenant-local ones so both sides of a mirror
// comparison register identical service ids.
std::vector<const ProcessDef*> BuildSpanningWorkload(ShardedWorld* world,
                                                     int per_tenant,
                                                     int span_pct) {
  std::vector<const ProcessDef*> defs;
  for (int round = 0; round < per_tenant; ++round) {
    for (int t = 0; t < world->num_tenants(); ++t) {
      defs.push_back(world->MakeOrderProcess(
          t, StrCat("order_t", t, "_", round), round));
      defs.push_back(world->MakeConsumeProcess(
          t, StrCat("consume_t", t, "_", round), round));
      defs.push_back(world->MakeRefillProcess(
          t, StrCat("refill_t", t, "_", round), round));
    }
  }
  const int tenants = world->num_tenants();
  const int spans =
      static_cast<int>(defs.size()) * span_pct / (100 - span_pct + 1);
  for (int i = 0; i < spans; ++i) {
    const int a = i % tenants;
    const int b = (i + 1) % tenants;
    const int c = (i + 2) % tenants;
    const ProcessDef* def = nullptr;
    switch (i % 3) {
      case 0:
        def = world->MakeSpanningProcess(StrCat("span_", i), a, b);
        break;
      case 1:
        def = world->MakeSpanningChainProcess(StrCat("span_", i), a, b, c);
        break;
      default:
        def = world->MakeSpanningAltProcess(StrCat("span_", i), a, b, c);
        break;
    }
    EXPECT_NE(def, nullptr) << "span_" << i;
    // Interleave: every few locals, one spanning.
    defs.insert(defs.begin() + (i * 4) % defs.size(), def);
  }
  for (const ProcessDef* def : defs) EXPECT_NE(def, nullptr);
  return defs;
}

// One spanning process across two shards: split into two sub-processes,
// voted, decided commit, globally committed — and the merged projection
// shows ONE process with the original definition.
TEST(CrossShardTest, TwoShardSpanCommitsAtomically) {
  ShardedWorld world({.seed = 21, .num_tenants = 2});
  const ProcessDef* span = world.MakeSpanningProcess("span", 0, 1);
  ASSERT_NE(span, nullptr);
  ShardedRuntimeOptions options;
  options.num_shards = 2;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  { Status start_status = runtime.Start(); ASSERT_TRUE(start_status.ok()) << start_status; }

  auto ticket = runtime.Submit(span);
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_GE(ticket->gsn, 1);
  ASSERT_TRUE(runtime.Drain().ok());
  auto pid = ticket->Await();
  ASSERT_TRUE(pid.ok()) << pid.status();
  EXPECT_EQ(runtime.SpanningOutcome(ticket->gsn), SpanOutcome::kCommitted);

  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.spans_begun, 1);
  EXPECT_EQ(stats.spans_committed, 1);
  EXPECT_EQ(stats.spans_aborted, 0);
  // Both slices went through the held 2PC: two admissions, two prepares.
  EXPECT_EQ(stats.merged.spanning_admitted, 2);
  EXPECT_EQ(stats.merged.cross_shard_prepares, 2);
  EXPECT_EQ(stats.submissions_accepted, 1);

  ASSERT_TRUE(runtime.Stop().ok());
  ASSERT_TRUE(world.CheckAdtInvariants().ok());

  // The global projection reassembles the span: one process, the original
  // def, one Commit — and it satisfies the global criteria.
  auto global = runtime.GlobalProjection();
  ASSERT_TRUE(global.ok()) << global.status();
  int span_processes = 0;
  for (const auto& [gpid, def] : global->processes()) {
    if (def == span) ++span_processes;
  }
  EXPECT_EQ(span_processes, 1);
  auto pred = IsPRED(*global, runtime.union_spec());
  ASSERT_TRUE(pred.ok()) << pred.status();
  EXPECT_TRUE(*pred);
  EXPECT_TRUE(
      IsProcessRecoverable(CommittedProjection(*global), runtime.union_spec()));
}

// The three-stage chain exercises a multi-hop skeleton; strong composite
// order forces strictly sequential sub-process submission and must still
// commit.
TEST(CrossShardTest, MultiHopChainCommitsUnderWeakAndStrongOrder) {
  for (OrderMode order : {OrderMode::kWeak, OrderMode::kStrong}) {
    ShardedWorld world({.seed = 22, .num_tenants = 3});
    const ProcessDef* chain = world.MakeSpanningChainProcess("chain", 0, 1, 2);
    ASSERT_NE(chain, nullptr);
    ShardedRuntimeOptions options;
    options.num_shards = 3;
    options.mode = TickMode::kLockstep;
    options.span_order = order;
    ShardedRuntime runtime(options);
    ASSERT_TRUE(world.RegisterAll(&runtime).ok());
    { Status start_status = runtime.Start(); ASSERT_TRUE(start_status.ok()) << start_status; }

    auto ticket = runtime.Submit(chain);
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    ASSERT_TRUE(runtime.Drain().ok());
    EXPECT_EQ(runtime.SpanningOutcome(ticket->gsn), SpanOutcome::kCommitted)
        << "order mode " << static_cast<int>(order);
    RuntimeStats stats = runtime.Stats();
    EXPECT_EQ(stats.merged.spanning_admitted, 3);
    EXPECT_EQ(stats.merged.cross_shard_prepares, 3);
    ASSERT_TRUE(runtime.Stop().ok());
    ASSERT_TRUE(world.CheckAdtInvariants().ok());
    auto global = runtime.GlobalProjection();
    ASSERT_TRUE(global.ok()) << global.status();
    auto pred = IsPRED(*global, runtime.union_spec());
    ASSERT_TRUE(pred.ok());
    EXPECT_TRUE(*pred);
  }
}

// Cross-shard ◁ alternatives: the preferred tail is tried first and (its
// services healthy) wins; the spanning process commits with exactly one
// tail slice in the histories.
TEST(CrossShardTest, CrossShardAlternativesTakePreferredTail) {
  ShardedWorld world({.seed = 23, .num_tenants = 3});
  const ProcessDef* alt = world.MakeSpanningAltProcess("alt", 0, 1, 2);
  ASSERT_NE(alt, nullptr);
  ShardedRuntimeOptions options;
  options.num_shards = 3;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  { Status start_status = runtime.Start(); ASSERT_TRUE(start_status.ok()) << start_status; }

  auto ticket = runtime.Submit(alt);
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  ASSERT_TRUE(runtime.Drain().ok());
  EXPECT_EQ(runtime.SpanningOutcome(ticket->gsn), SpanOutcome::kCommitted);
  // Trunk slice + the preferred tail only: two admissions.
  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.merged.spanning_admitted, 2);
  ASSERT_TRUE(runtime.Stop().ok());
  auto global = runtime.GlobalProjection();
  ASSERT_TRUE(global.ok()) << global.status();
  auto pred = IsPRED(*global, runtime.union_spec());
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(*pred);
  EXPECT_TRUE(
      IsProcessRecoverable(CommittedProjection(*global), runtime.union_spec()));
}

// Spanning processes pinned to ONE shard never reach the agent: the
// single-shard fast path is untouched (ticket has no gsn, no SBEGIN).
TEST(CrossShardTest, SameShardFootprintStaysOnFastPath) {
  ShardedWorld world({.seed = 24, .num_tenants = 2});
  // Both tenants of the "spanning" def on one shard: pinned.
  const ProcessDef* local = world.MakeSpanningProcess("local_span", 0, 1);
  ASSERT_NE(local, nullptr);
  ShardedRuntimeOptions options;
  options.num_shards = 1;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  { Status start_status = runtime.Start(); ASSERT_TRUE(start_status.ok()) << start_status; }
  auto ticket = runtime.Submit(local);
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_EQ(ticket->gsn, -1);  // never went near the agent
  ASSERT_TRUE(runtime.Drain().ok());
  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.spans_begun, 0);
  EXPECT_EQ(stats.merged.spanning_admitted, 0);
  auto pid = ticket->Await();
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(runtime.Stop().ok());
  EXPECT_EQ(runtime.shard_scheduler(0)->OutcomeOf(*pid),
            ProcessOutcome::kCommitted);
}

// The mixed workload at >=20% spanning, lockstep: everything drains, the
// global projection is PRED + Proc-REC, the ADT invariants hold, and the
// span counters agree with the outcomes.
TEST(CrossShardTest, MixedWorkloadWithSpansIsGloballyPredAndProcRec) {
  ShardedWorld world({.seed = 25, .num_tenants = 4});
  std::vector<const ProcessDef*> defs = BuildSpanningWorkload(&world, 2, 20);
  ShardedRuntimeOptions options;
  options.num_shards = 4;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  { Status start_status = runtime.Start(); ASSERT_TRUE(start_status.ok()) << start_status; }

  std::vector<int64_t> gsns;
  for (const ProcessDef* def : defs) {
    auto ticket = runtime.Submit(def);
    ASSERT_TRUE(ticket.ok()) << def->name() << ": " << ticket.status();
    if (ticket->gsn >= 0) gsns.push_back(ticket->gsn);
  }
  EXPECT_GE(gsns.size(), 5u);
  ASSERT_TRUE(runtime.Drain().ok());

  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.spans_begun, static_cast<int64_t>(gsns.size()));
  EXPECT_EQ(stats.spans_begun, stats.spans_committed + stats.spans_aborted);
  for (int64_t gsn : gsns) {
    SpanOutcome outcome = runtime.SpanningOutcome(gsn);
    EXPECT_TRUE(outcome == SpanOutcome::kCommitted ||
                outcome == SpanOutcome::kAborted)
        << "g" << gsn;
  }
  ASSERT_TRUE(runtime.Stop().ok());
  ASSERT_TRUE(world.CheckAdtInvariants().ok());

  auto global = runtime.GlobalProjection();
  ASSERT_TRUE(global.ok()) << global.status();
  auto pred = IsPRED(*global, runtime.union_spec());
  ASSERT_TRUE(pred.ok()) << pred.status();
  EXPECT_TRUE(*pred);
  EXPECT_TRUE(
      IsProcessRecoverable(CommittedProjection(*global), runtime.union_spec()));
}

// Determinism with spanning enabled: two identically seeded lockstep runs
// produce bit-identical per-shard histories, coordinator logs, and global
// projections.
TEST(CrossShardTest, LockstepWithSpansIsDeterministic) {
  std::vector<uint64_t> shard_prints[2];
  uint64_t coord_print[2] = {0, 0};
  uint64_t global_print[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    ShardedWorld world({.seed = 26, .num_tenants = 4});
    std::vector<const ProcessDef*> defs = BuildSpanningWorkload(&world, 2, 20);
    ShardedRuntimeOptions options;
    options.num_shards = 4;
    options.mode = TickMode::kLockstep;
    ShardedRuntime runtime(options);
    ASSERT_TRUE(world.RegisterAll(&runtime).ok());
    { Status start_status = runtime.Start(); ASSERT_TRUE(start_status.ok()) << start_status; }
    for (const ProcessDef* def : defs) {
      auto ticket = runtime.Submit(def);
      ASSERT_TRUE(ticket.ok()) << ticket.status();
      // Lockstep submissions interleave with rounds exactly as the
      // deterministic driver dictates: tick once per submission.
      ASSERT_TRUE(runtime.Tick(1).ok());
    }
    ASSERT_TRUE(runtime.Drain().ok());
    ASSERT_TRUE(runtime.Stop().ok());
    for (int s = 0; s < 4; ++s) {
      shard_prints[run].push_back(
          Fnv1a(runtime.shard_scheduler(s)->history().ToString()));
    }
    std::string coord;
    for (const std::string& record :
         runtime.cross_shard_agent()->wal()->records()) {
      coord += record;
      coord += '\n';
    }
    coord_print[run] = Fnv1a(coord);
    auto global = runtime.GlobalProjection();
    ASSERT_TRUE(global.ok()) << global.status();
    global_print[run] = Fnv1a(global->ToString());
  }
  EXPECT_EQ(shard_prints[0], shard_prints[1]);
  EXPECT_EQ(coord_print[0], coord_print[1]);
  EXPECT_EQ(global_print[0], global_print[1]);
}

// Splitter unit coverage: the plan's shape for the chain — per-shard
// slices in skeleton order, local activity ids remapped onto the
// original's, deterministic re-split.
TEST(CrossShardTest, SplitPlanIsDeterministicAndCoversTheDefinition) {
  ShardedWorld world({.seed = 27, .num_tenants = 3});
  const ProcessDef* chain = world.MakeSpanningChainProcess("chain", 0, 1, 2);
  ASSERT_NE(chain, nullptr);
  ShardedRuntimeOptions options;
  options.num_shards = 3;
  options.mode = TickMode::kLockstep;
  ShardedRuntime runtime(options);
  ASSERT_TRUE(world.RegisterAll(&runtime).ok());
  { Status start_status = runtime.Start(); ASSERT_TRUE(start_status.ok()) << start_status; }

  auto plan = runtime.router().Split(*chain, "chain@g1");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->subs.size(), 3u);
  EXPECT_TRUE(plan->tails.empty());
  // Slices are one-per-shard, disjoint, and jointly cover the original's
  // activities through to_original.
  std::set<int> shards;
  std::set<int64_t> covered;
  for (const SubProcessPlan& sub : plan->subs) {
    EXPECT_TRUE(shards.insert(sub.shard).second);
    for (const auto& [local, original] : sub.to_original) {
      EXPECT_TRUE(covered.insert(original.value()).second);
    }
  }
  EXPECT_EQ(covered.size(), chain->activities().size());
  // The first slice has no skeleton predecessors; later ones do.
  EXPECT_TRUE(plan->subs[0].skeleton_preds.empty());
  EXPECT_FALSE(plan->subs[2].skeleton_preds.empty());

  // Deterministic: a second split is bit-identical (names, edges, maps).
  auto replay = runtime.router().Split(*chain, "chain@g1");
  ASSERT_TRUE(replay.ok());
  for (size_t i = 0; i < plan->subs.size(); ++i) {
    EXPECT_EQ(plan->subs[i].def->name(), replay->subs[i].def->name());
    EXPECT_EQ(plan->subs[i].shard, replay->subs[i].shard);
    EXPECT_EQ(plan->subs[i].to_original, replay->subs[i].to_original);
    EXPECT_EQ(plan->subs[i].skeleton_preds, replay->subs[i].skeleton_preds);
  }
  ASSERT_TRUE(runtime.Stop().ok());
}

// Free-running spanning soak: concurrent submitters, spanning mix, drain,
// then the global criteria. TPM_RUNTIME_SPAN_PCT overrides the spanning
// share (CI chaos variant); TPM_RUNTIME_SEED_BASE / TPM_RUNTIME_SOAK_ITERS
// run fresh world seeds (default: world seed 28, one iteration), and a
// failing seed is written to TPM_FAULT_SEED_FILE.
TEST(CrossShardTest, FreeRunningSpanningSoakIsGloballyCorrect) {
  int span_pct = 20;
  if (const char* env = std::getenv("TPM_RUNTIME_SPAN_PCT")) {
    auto parsed = ParseInt64(env);
    if (parsed.ok() && *parsed >= 0 && *parsed <= 50) {
      span_pct = static_cast<int>(*parsed);
    }
  }
  const char* base_env = std::getenv("TPM_RUNTIME_SEED_BASE");
  const char* iters_env = std::getenv("TPM_RUNTIME_SOAK_ITERS");
  const uint64_t seed_base =
      base_env != nullptr ? std::strtoull(base_env, nullptr, 10) : 28;
  const int iterations = iters_env != nullptr ? std::atoi(iters_env) : 1;

  for (int iter = 0; iter < iterations; ++iter) {
    const uint64_t seed = seed_base + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ShardedWorld world({.seed = seed, .num_tenants = 4});
    std::vector<const ProcessDef*> defs =
        BuildSpanningWorkload(&world, 3, span_pct);
    ShardedRuntimeOptions options;
    options.num_shards = 4;
    options.mode = TickMode::kFreeRunning;
    ShardedRuntime runtime(options);
    ASSERT_TRUE(world.RegisterAll(&runtime).ok());
    { Status start_status = runtime.Start(); ASSERT_TRUE(start_status.ok()) << start_status; }
    int64_t spans = 0;
    for (const ProcessDef* def : defs) {
      auto ticket = runtime.Submit(def);
      ASSERT_TRUE(ticket.ok()) << def->name() << ": " << ticket.status();
      if (ticket->gsn >= 0) ++spans;
    }
    ASSERT_TRUE(runtime.Drain().ok());
    RuntimeStats stats = runtime.Stats();
    EXPECT_EQ(stats.spans_begun, spans);
    EXPECT_EQ(stats.spans_begun, stats.spans_committed + stats.spans_aborted);
    ASSERT_TRUE(runtime.Stop().ok());
    ASSERT_TRUE(world.CheckAdtInvariants().ok());
    auto global = runtime.GlobalProjection();
    ASSERT_TRUE(global.ok()) << global.status();
    auto pred = IsPRED(*global, runtime.union_spec());
    ASSERT_TRUE(pred.ok()) << pred.status();
    EXPECT_TRUE(*pred);
    EXPECT_TRUE(IsProcessRecoverable(CommittedProjection(*global),
                                     runtime.union_spec()));
    if (::testing::Test::HasFailure()) {
      // CI uploads this file so the failing seed survives the run.
      std::string path = testing::WriteFailingSeed(
          "spanning_soak", iter, "CrossShardTest",
          StrCat("TPM_RUNTIME_SEED_BASE=", seed, " TPM_RUNTIME_SPAN_PCT=",
                 span_pct,
                 " TPM_RUNTIME_SOAK_ITERS=1 ctest -R "
                 "FreeRunningSpanningSoak"));
      std::cerr << "spanning soak failed at seed " << seed
                << "; reproducer written to " << path << "\n";
      break;
    }
  }
}

// Hand-built shard histories for MergeGlobalProjection: a linear
// definition over (kind, service) activities; compensatables get the
// compensation service 100 + service.
std::unique_ptr<ProcessDef> LinearDef(
    const std::string& name,
    const std::vector<std::pair<ActivityKind, int>>& acts) {
  auto def = std::make_unique<ProcessDef>(name);
  ActivityId prev;
  for (const auto& [kind, service] : acts) {
    const ActivityId id = def->AddActivity(
        StrCat("s", service), kind, ServiceId(service),
        IsCompensatableKind(kind) ? ServiceId(100 + service) : ServiceId());
    if (prev.valid()) {
      EXPECT_TRUE(def->AddEdge(prev, id).ok());
    }
    prev = id;
  }
  EXPECT_TRUE(def->Validate().ok());
  return def;
}

void AppendActivity(ProcessSchedule* history, int64_t pid, int64_t act,
                    bool aborted_invocation = false) {
  ASSERT_TRUE(history
                  ->Append(ScheduleEvent::Activity(
                               ActivityInstance{ProcessId(pid),
                                                ActivityId(act), false},
                               aborted_invocation),
                           /*enforce_legal=*/false)
                  .ok());
}

// A later slice is submitted only after its skeleton predecessor voted,
// and the predecessor votes only once its conflicting predecessors
// terminated. The merge must keep that order: merging the later slice
// (on the lower shard) right after the predecessor's forward events would
// put the span's commit ahead of the commit of a process it read from — a
// Proc-REC violation the execution never had.
TEST(GlobalProjectionTest, LaterSliceWaitsForPredecessorVote) {
  auto original = LinearDef("span", {{ActivityKind::kCompensatable, 1},
                                     {ActivityKind::kPivot, 3}});
  auto first = LinearDef("span@g1/s0", {{ActivityKind::kCompensatable, 1}});
  auto second = LinearDef("span@g1/s1", {{ActivityKind::kPivot, 3}});
  auto local = LinearDef("consume", {{ActivityKind::kCompensatable, 1},
                                     {ActivityKind::kPivot, 2}});
  ConflictSpec spec;
  spec.AddConflict(ServiceId(1), ServiceId(1));

  std::map<std::string, SpanSubProjection> spans;
  spans["span@g1/s0"] = {.gsn = 1,
                         .original = original.get(),
                         .to_original = {{ActivityId(1), ActivityId(1)}},
                         .forward_preds = {}};
  spans["span@g1/s1"] = {.gsn = 1,
                         .original = original.get(),
                         .to_original = {{ActivityId(1), ActivityId(2)}},
                         .forward_preds = {"span@g1/s0"}};

  // Shard 0 runs the later slice; shard 1 runs the consumer, then the
  // first slice, which votes after the consumer committed.
  ProcessSchedule shard0;
  ASSERT_TRUE(shard0.AddProcess(ProcessId(1), second.get()).ok());
  AppendActivity(&shard0, 1, 1);
  ASSERT_TRUE(shard0.Append(ScheduleEvent::Commit(ProcessId(1)), false).ok());
  ProcessSchedule shard1;
  ASSERT_TRUE(shard1.AddProcess(ProcessId(1), local.get()).ok());
  ASSERT_TRUE(shard1.AddProcess(ProcessId(2), first.get()).ok());
  AppendActivity(&shard1, 1, 1);
  AppendActivity(&shard1, 2, 1);
  AppendActivity(&shard1, 1, 2);
  ASSERT_TRUE(shard1.Append(ScheduleEvent::Commit(ProcessId(1)), false).ok());
  ProcessSchedule unvoted = shard1;
  shard1.MarkVote(ProcessId(2));
  EXPECT_EQ(shard1.VotePosition(ProcessId(2)), 4u);
  for (ProcessSchedule* h : {&shard1, &unvoted}) {
    ASSERT_TRUE(h->Append(ScheduleEvent::Commit(ProcessId(2)), false).ok());
  }

  auto global = MergeGlobalProjection({&shard0, &shard1}, spans);
  ASSERT_TRUE(global.ok()) << global.status();
  // The span is global P1, the consumer P2: C2 precedes the span's pivot.
  std::vector<std::string> events;
  for (const ScheduleEvent& e : global->events()) {
    events.push_back(e.ToString());
  }
  EXPECT_EQ(StrJoin(events, " "), "a2_1 a1_1 a2_2 C2 a1_2 C1");
  auto pred = IsPRED(*global, spec);
  ASSERT_TRUE(pred.ok()) << pred.status();
  EXPECT_TRUE(*pred);
  EXPECT_TRUE(IsProcessRecoverable(CommittedProjection(*global), spec));

  // Gated on forward events alone, the span commits first.
  auto ungated = MergeGlobalProjection({&shard0, &unvoted}, spans);
  ASSERT_TRUE(ungated.ok()) << ungated.status();
  EXPECT_FALSE(IsProcessRecoverable(CommittedProjection(*ungated), spec));
}

// A failed ◁ alternative aborts inside a committed spanning process; that
// is not a half-committed span. A committed trunk whose alternatives all
// failed is.
TEST(GlobalProjectionTest, FailedAlternativeIsNotHalfCommitted) {
  auto original = std::make_unique<ProcessDef>("alt");
  const ActivityId x = original->AddActivity(
      "x", ActivityKind::kCompensatable, ServiceId(1), ServiceId(101));
  const ActivityId y =
      original->AddActivity("y", ActivityKind::kPivot, ServiceId(2));
  const ActivityId z =
      original->AddActivity("z", ActivityKind::kPivot, ServiceId(3));
  ASSERT_TRUE(original->AddEdge(x, y, 0).ok());
  ASSERT_TRUE(original->AddEdge(x, z, 1).ok());
  ASSERT_TRUE(original->Validate().ok());
  auto trunk = LinearDef("alt@g1/s0", {{ActivityKind::kCompensatable, 1}});
  auto tail0 = LinearDef("alt@g1/t0", {{ActivityKind::kPivot, 2}});
  auto tail1 = LinearDef("alt@g1/t1", {{ActivityKind::kPivot, 3}});

  std::map<std::string, SpanSubProjection> spans;
  spans["alt@g1/s0"] = {.gsn = 1,
                        .original = original.get(),
                        .to_original = {{x, x}},
                        .forward_preds = {}};
  spans["alt@g1/t0"] = {.gsn = 1,
                        .original = original.get(),
                        .to_original = {{ActivityId(1), y}},
                        .forward_preds = {"alt@g1/s0"},
                        .tail = true};
  spans["alt@g1/t1"] = {.gsn = 1,
                        .original = original.get(),
                        .to_original = {{ActivityId(1), z}},
                        .forward_preds = {"alt@g1/s0"},
                        .tail = true};

  ProcessSchedule shard0;
  ASSERT_TRUE(shard0.AddProcess(ProcessId(1), trunk.get()).ok());
  AppendActivity(&shard0, 1, 1);
  shard0.MarkVote(ProcessId(1));
  ASSERT_TRUE(shard0.Append(ScheduleEvent::Commit(ProcessId(1)), false).ok());
  ProcessSchedule shard1;  // the preferred alternative fails
  ASSERT_TRUE(shard1.AddProcess(ProcessId(1), tail0.get()).ok());
  AppendActivity(&shard1, 1, 1, /*aborted_invocation=*/true);
  ASSERT_TRUE(shard1.Append(ScheduleEvent::Abort(ProcessId(1)), false).ok());
  ProcessSchedule shard2;  // the next one commits
  ASSERT_TRUE(shard2.AddProcess(ProcessId(1), tail1.get()).ok());
  AppendActivity(&shard2, 1, 1);
  shard2.MarkVote(ProcessId(1));
  ASSERT_TRUE(shard2.Append(ScheduleEvent::Commit(ProcessId(1)), false).ok());

  auto global = MergeGlobalProjection({&shard0, &shard1, &shard2}, spans);
  ASSERT_TRUE(global.ok()) << global.status();
  EXPECT_TRUE(global->IsProcessCommitted(ProcessId(1)));
  int terminals = 0;
  for (const ScheduleEvent& e : global->events()) {
    if (e.type != EventType::kActivity) ++terminals;
  }
  EXPECT_EQ(terminals, 1);

  ProcessSchedule failed;  // the last alternative fails too
  ASSERT_TRUE(failed.AddProcess(ProcessId(1), tail1.get()).ok());
  AppendActivity(&failed, 1, 1, /*aborted_invocation=*/true);
  ASSERT_TRUE(failed.Append(ScheduleEvent::Abort(ProcessId(1)), false).ok());
  auto half = MergeGlobalProjection({&shard0, &shard1, &failed}, spans);
  ASSERT_FALSE(half.ok());
  EXPECT_NE(half.status().ToString().find("half-committed"),
            std::string::npos)
      << half.status();
}

// The global recovery check catches what no shard can see: two spans
// whose slices meet in opposite orders on two shards. Each shard history
// is serial and PRED on its own; merged, span 1 precedes span 2 on
// service 1 and follows it on service 3, a cycle between committed
// processes.
TEST(GlobalProjectionTest, CrossedSpansFailTheGlobalRecoveryCheck) {
  // Span g runs its service-1 activity on shard 0 and its service-3
  // activity on shard 1: slice[g][shard].
  std::vector<std::unique_ptr<ProcessDef>> defs;
  const ProcessDef* slice[3][2] = {};
  std::map<std::string, SpanSubProjection> spans;
  for (int gsn : {1, 2}) {
    const std::string name = StrCat("span", gsn);
    defs.push_back(LinearDef(name, {{ActivityKind::kCompensatable, 1},
                                    {ActivityKind::kRetriable, 3}}));
    const ProcessDef* original = defs.back().get();
    for (int shard : {0, 1}) {
      defs.push_back(LinearDef(
          StrCat(name, "@g", gsn, "/s", shard),
          {{shard == 0 ? ActivityKind::kCompensatable
                       : ActivityKind::kRetriable,
            shard == 0 ? 1 : 3}}));
      slice[gsn][shard] = defs.back().get();
      spans[defs.back()->name()] = {
          .gsn = gsn,
          .original = original,
          .to_original = {{ActivityId(1), ActivityId(shard + 1)}},
          .forward_preds = {}};
    }
  }
  ConflictSpec spec;
  spec.AddConflict(ServiceId(1), ServiceId(1));
  spec.AddConflict(ServiceId(3), ServiceId(3));

  // One shard's serial history: P1 then P2, one activity each.
  auto serial = [](const ProcessDef* first, const ProcessDef* second) {
    ProcessSchedule history;
    EXPECT_TRUE(history.AddProcess(ProcessId(1), first).ok());
    EXPECT_TRUE(history.AddProcess(ProcessId(2), second).ok());
    AppendActivity(&history, 1, 1);
    AppendActivity(&history, 2, 1);
    EXPECT_TRUE(history.Append(ScheduleEvent::Commit(ProcessId(1)), false)
                    .ok());
    EXPECT_TRUE(history.Append(ScheduleEvent::Commit(ProcessId(2)), false)
                    .ok());
    return history;
  };
  ProcessSchedule shard0 = serial(slice[1][0], slice[2][0]);
  ProcessSchedule in_order = serial(slice[1][1], slice[2][1]);
  ProcessSchedule crossed = serial(slice[2][1], slice[1][1]);
  for (const ProcessSchedule* history : {&shard0, &in_order, &crossed}) {
    auto pred = IsPRED(*history, spec);
    ASSERT_TRUE(pred.ok()) << pred.status();
    EXPECT_TRUE(*pred);
  }

  EXPECT_TRUE(VerifyGlobalProjection({&shard0, &in_order}, spans, spec).ok());
  Status status = VerifyGlobalProjection({&shard0, &crossed}, spans, spec);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
  EXPECT_EQ(status.message(), "global recovered history is not PRED");
}

}  // namespace
}  // namespace tpm
