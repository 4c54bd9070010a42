// Batched-admission equivalence: Scheduler::SubmitBatch must produce
// bit-identical histories, stats and per-entry outcomes to the
// one-at-a-time Submit path. The fingerprint harness reuses the refactor
// equivalence workloads (all admission protocols x both defer modes) and
// compares a batched run against a per-process run directly — the
// per-process side is in turn pinned to the seed goldens by
// scheduler_refactor_equivalence_test.cc, so transitively the batched path
// matches the seed too.

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fingerprint.h"
#include "common/str_util.h"
#include "core/scheduler.h"
#include "testing/mini_world.h"
#include "workload/process_generator.h"

namespace tpm {
namespace {

using testing::MiniWorld;
using BatchSubmission = TransactionalProcessScheduler::BatchSubmission;

struct Combo {
  const char* label;
  AdmissionProtocol protocol;
  DeferMode defer;
  bool quasi;
};

struct WorkloadSpec {
  const char* label;
  int pool;
  double failure;
  uint64_t seed;
  int64_t duration;    // 0 = no cost model
  int max_concurrent;  // 0 = unlimited
};

constexpr Combo kCombos[] = {
    {"pred/delay", AdmissionProtocol::kPred, DeferMode::kDelayExecution,
     false},
    {"pred/2pc", AdmissionProtocol::kPred, DeferMode::kPrepared2PC, false},
    {"pred+qc/delay", AdmissionProtocol::kPred, DeferMode::kDelayExecution,
     true},
    {"pred+qc/2pc", AdmissionProtocol::kPred, DeferMode::kPrepared2PC, true},
    {"serial/delay", AdmissionProtocol::kSerial, DeferMode::kDelayExecution,
     false},
    {"serial/2pc", AdmissionProtocol::kSerial, DeferMode::kPrepared2PC,
     false},
    {"2pl/delay", AdmissionProtocol::kTwoPhaseLocking,
     DeferMode::kDelayExecution, false},
    {"2pl/2pc", AdmissionProtocol::kTwoPhaseLocking, DeferMode::kPrepared2PC,
     false},
    {"unsafe/delay", AdmissionProtocol::kUnsafe, DeferMode::kDelayExecution,
     false},
    {"unsafe/2pc", AdmissionProtocol::kUnsafe, DeferMode::kPrepared2PC,
     false},
};

constexpr WorkloadSpec kWorkloads[] = {
    {"w0-low", 18, 0.0, 7, 0, 0},
    {"w1-mid-fail", 5, 0.05, 21, 0, 0},
    {"w2-extreme-fail", 3, 0.10, 99, 0, 0},
    {"w3-durations-throttled", 9, 0.0, 5, 3, 4},
};

std::string HexOf(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

// Runs the workload under the combo, submitting either per-process or in
// per-round batches, and fingerprints the emitted history plus every
// SchedulerStats field.
std::string RunFingerprint(const WorkloadSpec& w, const Combo& c,
                           bool batched) {
  SyntheticUniverse universe(3, 6);
  for (const auto& item : universe.items()) {
    for (KvSubsystem* subsystem : universe.subsystems()) {
      if (subsystem->id() == item.subsystem) {
        subsystem->SetFailureProbability(item.add, w.failure);
      }
    }
  }
  ProcessShape shape;
  shape.items_per_process = 3;
  shape.nested_probability = 0.3;
  ProcessGenerator generator(&universe, shape, w.seed);
  generator.RestrictItems(0, static_cast<size_t>(w.pool));
  SchedulerOptions options;
  options.protocol = c.protocol;
  options.defer_mode = c.defer;
  options.quasi_commit_optimization = c.quasi;
  options.max_concurrent_processes = w.max_concurrent;
  if (w.duration > 0) {
    for (const auto& item : universe.items()) {
      options.service_durations[item.add] = w.duration;
      options.service_durations[item.sub] = w.duration;
    }
  }
  TransactionalProcessScheduler scheduler(options);
  (void)universe.RegisterAll(&scheduler);

  // Submits `defs` and records the successful pids in `in_flight`.
  auto submit_all = [&](const std::vector<const ProcessDef*>& defs,
                        std::map<ProcessId, const ProcessDef*>* in_flight) {
    if (batched) {
      std::vector<BatchSubmission> batch;
      batch.reserve(defs.size());
      for (const ProcessDef* def : defs) batch.push_back({def, 0});
      std::vector<Result<ProcessId>> pids = scheduler.SubmitBatch(batch);
      for (size_t i = 0; i < defs.size(); ++i) {
        if (pids[i].ok()) (*in_flight)[*pids[i]] = defs[i];
      }
    } else {
      for (const ProcessDef* def : defs) {
        auto pid = scheduler.Submit(def);
        if (pid.ok()) (*in_flight)[*pid] = def;
      }
    }
  };

  std::vector<const ProcessDef*> initial;
  for (int i = 0; i < 16; ++i) {
    auto def = generator.Generate(StrCat("e", i));
    if (def.ok()) initial.push_back(*def);
  }
  std::map<ProcessId, const ProcessDef*> in_flight;
  submit_all(initial, &in_flight);

  std::string status = "OK";
  for (int round = 0; round < 4 && !in_flight.empty(); ++round) {
    Status run = scheduler.Run();
    if (!run.ok()) {
      std::ostringstream os;
      os << run;
      status = os.str();
      break;
    }
    std::vector<const ProcessDef*> retries;
    for (const auto& [pid, def] : in_flight) {
      if (scheduler.OutcomeOf(pid) != ProcessOutcome::kAborted) continue;
      if (round == 3) continue;
      retries.push_back(def);
    }
    in_flight.clear();
    submit_all(retries, &in_flight);
  }
  const SchedulerStats& s = scheduler.stats();
  std::ostringstream os;
  os << "h=" << HexOf(Fnv1a(scheduler.history().ToString()))
     << " steps=" << s.steps << " vt=" << s.virtual_time
     << " ac=" << s.activities_committed << " fi=" << s.failed_invocations
     << " comp=" << s.compensations << " def=" << s.deferrals
     << " bll=" << s.blocked_by_locks << " alt=" << s.alternatives_taken
     << " pc=" << s.processes_committed << " pa=" << s.processes_aborted
     << " dv=" << s.deadlock_victims << " pb=" << s.prepared_branches
     << " qca=" << s.quasi_commit_admissions << " ca=" << s.cascading_aborts
     << " ic=" << s.irrecoverable_cascades << " cw=" << s.commit_waits
     << " fe=" << s.forced_executions << " cv=" << s.certified_violations
     << " status=" << status;
  return os.str();
}

TEST(SchedulerBatchEquivalence, BatchedMatchesOneAtATimeFingerprints) {
  for (const WorkloadSpec& w : kWorkloads) {
    for (const Combo& c : kCombos) {
      EXPECT_EQ(RunFingerprint(w, c, /*batched=*/true),
                RunFingerprint(w, c, /*batched=*/false))
          << "batched admission diverged from per-process admission for "
          << "workload " << w.label << ", combo " << c.label;
    }
  }
}

// --- Per-entry semantics -------------------------------------------------

SchedulerOptions PredOptions() {
  SchedulerOptions options;
  options.protocol = AdmissionProtocol::kPred;
  return options;
}

TEST(SchedulerBatch, MixedValidityKeepsPerEntryOutcomesAndPidOrder) {
  MiniWorld world;
  const ProcessDef* first = world.MakeChain("first", "c:a p:b");
  const ProcessDef* second = world.MakeChain("second", "c:x p:y");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ProcessDef foreign("foreign");
  foreign.AddActivity("x", ActivityKind::kPivot, ServiceId(424242));
  ASSERT_TRUE(foreign.Validate().ok());
  TransactionalProcessScheduler scheduler(PredOptions());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  std::vector<BatchSubmission> batch = {
      {first, 1}, {nullptr, 2}, {&foreign, 3}, {second, 4}};
  std::vector<Result<ProcessId>> results = scheduler.SubmitBatch(batch);
  ASSERT_EQ(results.size(), 4u);
  // Invalid entries get the same per-entry errors Submit would return,
  // and the valid entries take exactly the pids the one-at-a-time path
  // would have assigned them (rejections consume no pid).
  ASSERT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].status().IsInvalidArgument());
  EXPECT_TRUE(results[2].status().IsNotFound());
  ASSERT_TRUE(results[3].ok());
  EXPECT_EQ(*results[0], ProcessId(1));
  EXPECT_EQ(*results[3], ProcessId(2));
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.OutcomeOf(*results[0]), ProcessOutcome::kCommitted);
  EXPECT_EQ(scheduler.OutcomeOf(*results[3]), ProcessOutcome::kCommitted);
}

TEST(SchedulerBatch, RepeatedDefinitionMatchesPerProcessOutcomes) {
  // Eight copies of one conflicting definition in a single batch: the
  // memoized validation must not change a single outcome relative to
  // eight individual Submits on an identical scheduler + world.
  MiniWorld batched_world;
  MiniWorld reference_world;
  const ProcessDef* batched_def =
      batched_world.MakeChain("rep", "c:a p:b r:c");
  const ProcessDef* reference_def =
      reference_world.MakeChain("rep", "c:a p:b r:c");
  ASSERT_NE(batched_def, nullptr);
  ASSERT_NE(reference_def, nullptr);
  TransactionalProcessScheduler batched(PredOptions());
  TransactionalProcessScheduler reference(PredOptions());
  ASSERT_TRUE(batched.RegisterSubsystem(batched_world.subsystem()).ok());
  ASSERT_TRUE(reference.RegisterSubsystem(reference_world.subsystem()).ok());

  std::vector<BatchSubmission> batch(8, BatchSubmission{batched_def, 0});
  std::vector<Result<ProcessId>> results = batched.SubmitBatch(batch);
  ASSERT_EQ(results.size(), 8u);
  std::vector<ProcessId> reference_pids;
  for (int i = 0; i < 8; ++i) {
    auto pid = reference.Submit(reference_def);
    ASSERT_TRUE(pid.ok());
    reference_pids.push_back(*pid);
  }
  ASSERT_TRUE(batched.Run().ok());
  ASSERT_TRUE(reference.Run().ok());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "entry " << i;
    EXPECT_EQ(*results[i], reference_pids[i]);
    EXPECT_EQ(batched.OutcomeOf(*results[i]),
              reference.OutcomeOf(reference_pids[i]))
        << "entry " << i;
  }
  EXPECT_EQ(batched.stats().processes_committed,
            reference.stats().processes_committed);
  EXPECT_EQ(batched.stats().processes_aborted,
            reference.stats().processes_aborted);
  EXPECT_EQ(batched.history().ToString(), reference.history().ToString());
}

TEST(SchedulerBatch, EmptyBatchIsANoOp) {
  MiniWorld world;
  TransactionalProcessScheduler scheduler(PredOptions());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  EXPECT_TRUE(scheduler.SubmitBatch({}).empty());
  EXPECT_EQ(scheduler.stats().processes_committed, 0);
}

TEST(SchedulerBatch, BatchesInterleaveWithPerProcessSubmits) {
  MiniWorld world;
  const ProcessDef* d1 = world.MakeChain("m1", "c:a p:b");
  const ProcessDef* d2 = world.MakeChain("m2", "c:x p:y");
  const ProcessDef* d3 = world.MakeChain("m3", "c:u p:v");
  const ProcessDef* d4 = world.MakeChain("m4", "c:q p:w");
  ASSERT_NE(d4, nullptr);
  TransactionalProcessScheduler scheduler(PredOptions());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto solo = scheduler.Submit(d1);
  ASSERT_TRUE(solo.ok());
  std::vector<Result<ProcessId>> results =
      scheduler.SubmitBatch({{d2, 0}, {d3, 0}});
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(*results[0], ProcessId(2));
  EXPECT_EQ(*results[1], ProcessId(3));
  auto after = scheduler.Submit(d4);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, ProcessId(4));
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.stats().processes_committed, 4);
}

TEST(SchedulerBatch, EveryAdmissionPathInternsAGraphNode) {
  // Submit, SubmitHeld and SubmitBatch share one admission step, so each
  // leaves the same graph state: an admitted process is a serialization
  // graph node before any conflict edge names it.
  MiniWorld world;
  const ProcessDef* d1 = world.MakeChain("n1", "c:a p:b");
  const ProcessDef* d2 = world.MakeChain("n2", "c:x p:y");
  const ProcessDef* d3 = world.MakeChain("n3", "c:u p:v");
  ASSERT_NE(d3, nullptr);
  TransactionalProcessScheduler scheduler(PredOptions());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto solo = scheduler.Submit(d1);
  ASSERT_TRUE(solo.ok());
  EXPECT_TRUE(scheduler.InSerializationGraph(*solo));
  auto held = scheduler.SubmitHeld(d2);
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(scheduler.InSerializationGraph(*held));
  std::vector<Result<ProcessId>> results = scheduler.SubmitBatch({{d3, 0}});
  ASSERT_TRUE(results[0].ok());
  EXPECT_TRUE(scheduler.InSerializationGraph(*results[0]));
}

}  // namespace
}  // namespace tpm
