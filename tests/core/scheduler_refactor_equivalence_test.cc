// Equivalence harness for the scheduler-core layering refactor: the golden
// fingerprints below were captured from the pre-refactor (seed) monolithic
// scheduler over a matrix of workloads x all admission protocols x both
// defer modes. The refactored scheduler (serialization_graph.cc /
// admission.cc / conflict interning) must emit bit-identical histories and
// SchedulerStats for every combination.
//
// Regenerating goldens (only when an INTENTIONAL behaviour change lands):
/*
  g++ -DTPM_GOLDEN_GENERATE -std=c++20 -O2 -Isrc \
    tests/core/scheduler_refactor_equivalence_test.cc \
    build/src/libtpm_workload.a build/src/libtpm_core.a \
    build/src/libtpm_agent.a build/src/libtpm_subsystem.a \
    build/src/libtpm_log.a build/src/libtpm_common.a -o /tmp/golden_gen
  /tmp/golden_gen   # prints the kGolden table
*/

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "common/fingerprint.h"
#include "common/str_util.h"
#include "core/scheduler.h"
#include "workload/process_generator.h"

#ifndef TPM_GOLDEN_GENERATE
#include <gtest/gtest.h>
#endif

namespace tpm {
namespace {

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
  int64_t duration;        // 0 = no cost model
  int max_concurrent;      // 0 = unlimited
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

// Runs the workload under the combo and fingerprints the emitted history
// (hashed) plus every SchedulerStats field (verbatim, for diagnosability).
std::string RunFingerprint(const WorkloadSpec& w, const Combo& c) {
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
  std::map<ProcessId, const ProcessDef*> in_flight;
  for (int i = 0; i < 16; ++i) {
    auto def = generator.Generate(StrCat("e", i));
    if (!def.ok()) continue;
    auto pid = scheduler.Submit(*def);
    if (pid.ok()) in_flight[*pid] = *def;
  }
  std::string status = "OK";
  for (int round = 0; round < 4 && !in_flight.empty(); ++round) {
    Status run = scheduler.Run();
    if (!run.ok()) {
      std::ostringstream os;
      os << run;
      status = os.str();
      break;
    }
    std::map<ProcessId, const ProcessDef*> next;
    for (const auto& [pid, def] : in_flight) {
      if (scheduler.OutcomeOf(pid) != ProcessOutcome::kAborted) continue;
      if (round == 3) continue;
      auto retry = scheduler.Submit(def);
      if (retry.ok()) next[*retry] = def;
    }
    in_flight = std::move(next);
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

// --- Golden table (generated from the seed implementation; see header). ---
struct GoldenRow {
  const char* workload;
  const char* combo;
  const char* fingerprint;
};

constexpr GoldenRow kGolden[] = {
// clang-format off
#include "core/scheduler_refactor_golden.inc"
// clang-format on
};

}  // namespace
}  // namespace tpm

#ifdef TPM_GOLDEN_GENERATE
#include <iostream>
int main() {
  using namespace tpm;
  for (const WorkloadSpec& w : kWorkloads) {
    for (const Combo& c : kCombos) {
      std::cout << "{\"" << w.label << "\", \"" << c.label << "\",\n \""
                << RunFingerprint(w, c) << "\"},\n";
    }
  }
  return 0;
}
#else

namespace tpm {
namespace {

TEST(SchedulerRefactorEquivalence, MatchesSeedGoldens) {
  size_t i = 0;
  for (const WorkloadSpec& w : kWorkloads) {
    for (const Combo& c : kCombos) {
      ASSERT_LT(i, std::size(kGolden));
      const GoldenRow& row = kGolden[i++];
      ASSERT_STREQ(row.workload, w.label);
      ASSERT_STREQ(row.combo, c.label);
      EXPECT_EQ(RunFingerprint(w, c), row.fingerprint)
          << "history/stats diverged from the seed scheduler for workload "
          << w.label << ", combo " << c.label;
    }
  }
  EXPECT_EQ(i, std::size(kGolden));
}

}  // namespace
}  // namespace tpm

#endif  // TPM_GOLDEN_GENERATE
