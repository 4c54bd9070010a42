// E14 — reduction machinery scaling: the polynomial RED decision procedure
// vs the exhaustive rewrite oracle, and full PRED analysis cost, as
// schedule size grows.
//
// E26 — PRED verification time vs history length: the one-pass AnalyzePRED
// against the per-prefix AnalyzePREDReference on PRED histories of
// ~100-1000 events, recorded by the PRED scheduler over the mixed-ADT
// order economy (ShardedWorld, two tenants, four processes outstanding),
// and on recovered crash cuts: everything submitted at once, a few
// scheduling passes, a crash and Recover, so about 100 processes are
// active at the cut and the tail of completions is long. One more row
// times a conflict-free 1,000-event history with 200 processes active,
// where the per-event bookkeeping is the whole cost.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>

#include "common/str_util.h"
#include "core/pred.h"
#include "core/reduction.h"
#include "core/scheduler.h"
#include "log/recovery_log.h"
#include "workload/schedule_generator.h"
#include "workload/sharded_world.h"

using namespace tpm;

namespace {

GeneratedSchedule MakeWorkload(int num_processes, double density,
                               uint64_t seed) {
  Rng rng(seed);
  RandomScheduleConfig config;
  config.num_processes = num_processes;
  config.conflict_density = density;
  config.stop_probability = 0.0;
  auto generated = GenerateRandomSchedule(config, &rng);
  // Generation of valid configs cannot fail.
  return std::move(generated).value();
}

// A recorded PRED history. The world owns the definitions the scheduler's
// history points into.
struct RecordedHistory {
  std::unique_ptr<ShardedWorld> world;
  std::unique_ptr<TransactionalProcessScheduler> scheduler;
};

RecordedHistory RecordHistory(int rounds) {
  RecordedHistory h;
  h.world = std::make_unique<ShardedWorld>(
      ShardedWorldOptions{.seed = 26, .num_tenants = 2});
  std::vector<const ProcessDef*> defs;
  for (int r = 0; r < rounds; ++r) {
    for (int t = 0; t < h.world->num_tenants(); ++t) {
      defs.push_back(
          h.world->MakeOrderProcess(t, StrCat("o", t, "_", r), r % 3));
      defs.push_back(
          h.world->MakeConsumeProcess(t, StrCat("c", t, "_", r), r % 3));
      defs.push_back(
          h.world->MakeRefillProcess(t, StrCat("f", t, "_", r), r % 3));
    }
  }
  h.scheduler = std::make_unique<TransactionalProcessScheduler>();
  (void)h.world->RegisterAllSolo(h.scheduler.get());
  // Four outstanding at a time, like a closed loop.
  for (size_t i = 0; i < defs.size(); ++i) {
    (void)h.scheduler->Submit(defs[i]);
    if (i % 4 == 3) (void)h.scheduler->Run();
  }
  (void)h.scheduler->Run();
  return h;
}

// Rounds (six processes each) giving histories of 112, 280, 560 and 1120
// events.
constexpr int kE26Rounds[] = {4, 10, 20, 40};

// A recovered crash cut: `processes` definitions submitted at once,
// `passes` scheduling passes, then a crash and Recover from the recovery
// log, whose history holds the replayed prefix and the recovery actions.
struct CrashCutHistory {
  std::unique_ptr<ShardedWorld> world;
  std::unique_ptr<RecoveryLog> log;
  std::unique_ptr<TransactionalProcessScheduler> scheduler;
  size_t active_at_cut = 0;
};

CrashCutHistory RecordCrashCut(int processes, int passes) {
  CrashCutHistory h;
  h.world = std::make_unique<ShardedWorld>(
      ShardedWorldOptions{.seed = 26, .num_tenants = 2});
  h.log = std::make_unique<RecoveryLog>();
  h.scheduler = std::make_unique<TransactionalProcessScheduler>(
      SchedulerOptions{}, h.log.get());
  std::vector<const ProcessDef*> defs;
  for (int i = 0; i < processes; ++i) {
    const int t = i % h.world->num_tenants();
    const std::string name = StrCat("x", i);
    defs.push_back(i % 3 == 0   ? h.world->MakeOrderProcess(t, name, i % 3)
                   : i % 3 == 1 ? h.world->MakeConsumeProcess(t, name, i % 3)
                                : h.world->MakeRefillProcess(t, name, i % 3));
  }
  (void)h.world->RegisterAllSolo(h.scheduler.get());
  for (const ProcessDef* def : defs) (void)h.scheduler->Submit(def);
  for (int p = 0; p < passes; ++p) (void)h.scheduler->Step();
  h.active_at_cut = h.scheduler->history().ActiveProcesses().size();
  h.scheduler->Crash();
  (void)h.scheduler->Recover(h.world->DefsByName());
  return h;
}

// Submissions giving about 100 and 200 processes active at the cut.
constexpr int kCrashCutProcesses[] = {100, 200};
constexpr int kCrashCutPasses = 3;

// A conflict-free history with most processes active: 200 processes of one
// five-step chain, each step run by every process in turn, and conflicts
// declared only outside the chain's services (the history of the property
// test ConflictFreeHighActiveHistoryRunsNoTrial). No token is indexed, so
// the check is the per-event bookkeeping alone.
struct ConflictFreeHistory {
  ProcessDef def{"chain"};
  ConflictSpec spec;
  ProcessSchedule history;
};

std::unique_ptr<ConflictFreeHistory> RecordConflictFree() {
  constexpr int kProcesses = 200;
  constexpr int kSteps = 5;
  auto h = std::make_unique<ConflictFreeHistory>();
  std::vector<ActivityId> steps;
  for (int k = 0; k < kSteps; ++k) {
    steps.push_back(h->def.AddActivity(StrCat("c", k),
                                       ActivityKind::kCompensatable,
                                       ServiceId(1 + k), ServiceId(101 + k)));
    if (k > 0) (void)h->def.AddEdge(steps[k - 1], steps[k]);
  }
  ActivityId pivot =
      h->def.AddActivity("p", ActivityKind::kPivot, ServiceId(9));
  (void)h->def.AddEdge(steps.back(), pivot);
  (void)h->def.Validate();
  h->spec.AddConflict(ServiceId(1), ServiceId(500));
  h->spec.AddConflict(ServiceId(101), ServiceId(101));
  h->spec.AddConflict(ServiceId(500), ServiceId(501));
  for (int i = 1; i <= kProcesses; ++i) {
    (void)h->history.AddProcess(ProcessId(i), &h->def);
  }
  for (ActivityId step : steps) {
    for (int i = 1; i <= kProcesses; ++i) {
      (void)h->history.Append(
          ScheduleEvent::Activity({ProcessId(i), step, false}));
    }
  }
  return h;
}

template <typename Analyze>
double BestOfThreeMs(Analyze analyze) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    analyze();
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

void PrintE26() {
  std::cout << "E26 | PRED verification time vs history events (best of 3)\n";
  std::cout << "  rounds  events  one-pass ms  reference ms  speedup\n";
  for (int n : kE26Rounds) {
    RecordedHistory h = RecordHistory(n);
    const ProcessSchedule& history = h.scheduler->history();
    const ConflictSpec& spec = h.scheduler->conflict_spec();
    bool fast_pred = false, reference_pred = false;
    const double fast_ms = BestOfThreeMs([&] {
      auto outcome = AnalyzePRED(history, spec);
      fast_pred = outcome.ok() && outcome->prefix_reducible;
    });
    const double reference_ms = BestOfThreeMs([&] {
      auto outcome = AnalyzePREDReference(history, spec);
      reference_pred = outcome.ok() && outcome->prefix_reducible;
    });
    std::cout << "  " << std::setw(6) << n << std::setw(8) << history.size()
              << std::fixed << std::setprecision(3) << std::setw(13)
              << fast_ms << std::setw(14) << reference_ms
              << std::setprecision(1) << std::setw(8)
              << reference_ms / fast_ms << "x"
              << (fast_pred && reference_pred ? "" : "  (NOT PRED)") << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "\n";
  std::cout << "E26 | recovered crash cuts (best of 3)\n";
  std::cout << "  active at cut  events  one-pass ms  tail trials  "
               "reference ms  speedup\n";
  for (int n : kCrashCutProcesses) {
    CrashCutHistory h = RecordCrashCut(n, kCrashCutPasses);
    const ProcessSchedule& history = h.scheduler->history();
    const ConflictSpec& spec = h.scheduler->conflict_spec();
    bool fast_pred = false, reference_pred = false;
    size_t trials = 0;
    const double fast_ms = BestOfThreeMs([&] {
      auto outcome = AnalyzePRED(history, spec);
      fast_pred = outcome.ok() && outcome->prefix_reducible;
      trials = outcome.ok() ? outcome->tail_trials : 0;
    });
    const double reference_ms = BestOfThreeMs([&] {
      auto outcome = AnalyzePREDReference(history, spec);
      reference_pred = outcome.ok() && outcome->prefix_reducible;
    });
    std::cout << "  " << std::setw(13) << h.active_at_cut << std::setw(8)
              << history.size() << std::fixed << std::setprecision(3)
              << std::setw(13) << fast_ms << std::setw(13) << trials
              << std::setw(14) << reference_ms << std::setprecision(1)
              << std::setw(8) << reference_ms / fast_ms << "x"
              << (fast_pred && reference_pred ? "" : "  (NOT PRED)") << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "\n";
  std::cout << "E26 | conflict-free, most processes active (best of 3)\n";
  std::cout << "  active  events  one-pass ms  tail trials\n";
  {
    std::unique_ptr<ConflictFreeHistory> h = RecordConflictFree();
    bool pred = false;
    size_t trials = 0;
    const double fast_ms = BestOfThreeMs([&] {
      auto outcome = AnalyzePRED(h->history, h->spec);
      pred = outcome.ok() && outcome->prefix_reducible;
      trials = outcome.ok() ? outcome->tail_trials : 0;
    });
    std::cout << "  " << std::setw(6) << h->history.ActiveProcesses().size()
              << std::setw(8) << h->history.size() << std::fixed
              << std::setprecision(3) << std::setw(13) << fast_ms
              << std::setw(13) << trials << (pred ? "" : "  (NOT PRED)")
              << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "\n";
}

void PrintComparison() {
  std::cout << "E14 | reduction decision procedures\n";
  std::cout << "  polynomial checker vs exhaustive rewriter (same "
               "verdicts, test-validated):\n";
  for (int n : {2, 3}) {
    GeneratedSchedule w = MakeWorkload(n, 0.3, 17 + n);
    auto completed = CompleteSchedule(w.schedule);
    if (!completed.ok()) continue;
    std::set<ProcessId> committed;
    for (const auto& [pid, def] : w.schedule.processes()) {
      if (w.schedule.IsProcessCommitted(pid)) committed.insert(pid);
    }

    auto t0 = std::chrono::steady_clock::now();
    ReductionOutcome poly =
        ReduceCompletedSchedule(*completed, w.spec, committed);
    auto poly_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

    t0 = std::chrono::steady_clock::now();
    auto oracle = IsReducibleExhaustive(*completed, w.spec, committed,
                                        /*max_tokens=*/12,
                                        /*max_states=*/2'000'000);
    auto oracle_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    std::cout << "    processes=" << n << " events="
              << completed->size() << "  poly=" << poly_us << "us ("
              << (poly.reducible ? "RED" : "not RED") << ")  oracle=";
    if (oracle.ok()) {
      std::cout << oracle_us << "us (" << (*oracle ? "RED" : "not RED")
                << ")";
    } else {
      std::cout << "skipped (" << oracle.status().message() << ")";
    }
    std::cout << "\n";
  }
  std::cout << "\n";
}

void BM_PolynomialRed(benchmark::State& state) {
  GeneratedSchedule w =
      MakeWorkload(static_cast<int>(state.range(0)), 0.1, 5);
  for (auto _ : state) {
    auto outcome = AnalyzeRED(w.schedule, w.spec);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetComplexityN(static_cast<int64_t>(w.schedule.size()));
}
BENCHMARK(BM_PolynomialRed)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Complexity();

void BM_FullPredAnalysis(benchmark::State& state) {
  GeneratedSchedule w =
      MakeWorkload(static_cast<int>(state.range(0)), 0.1, 5);
  for (auto _ : state) {
    auto outcome = AnalyzePRED(w.schedule, w.spec);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetComplexityN(static_cast<int64_t>(w.schedule.size()));
}
BENCHMARK(BM_FullPredAnalysis)->Arg(2)->Arg(4)->Arg(8)->Complexity();

void BM_AnalyzePRED(benchmark::State& state) {
  RecordedHistory h = RecordHistory(static_cast<int>(state.range(0)));
  const ProcessSchedule& history = h.scheduler->history();
  for (auto _ : state) {
    auto outcome = AnalyzePRED(history, h.scheduler->conflict_spec());
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["events"] = static_cast<double>(history.size());
  state.SetComplexityN(static_cast<int64_t>(history.size()));
}
BENCHMARK(BM_AnalyzePRED)
    ->Arg(kE26Rounds[0])
    ->Arg(kE26Rounds[1])
    ->Arg(kE26Rounds[2])
    ->Arg(kE26Rounds[3])
    ->Unit(benchmark::kMillisecond);

void BM_AnalyzePREDCrashCut(benchmark::State& state) {
  CrashCutHistory h =
      RecordCrashCut(static_cast<int>(state.range(0)), kCrashCutPasses);
  const ProcessSchedule& history = h.scheduler->history();
  for (auto _ : state) {
    auto outcome = AnalyzePRED(history, h.scheduler->conflict_spec());
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["events"] = static_cast<double>(history.size());
  state.counters["active_at_cut"] = static_cast<double>(h.active_at_cut);
}
BENCHMARK(BM_AnalyzePREDCrashCut)
    ->Arg(kCrashCutProcesses[0])
    ->Arg(kCrashCutProcesses[1])
    ->Unit(benchmark::kMillisecond);

void BM_AnalyzePREDConflictFree(benchmark::State& state) {
  std::unique_ptr<ConflictFreeHistory> h = RecordConflictFree();
  for (auto _ : state) {
    auto outcome = AnalyzePRED(h->history, h->spec);
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["events"] = static_cast<double>(h->history.size());
}
BENCHMARK(BM_AnalyzePREDConflictFree)->Unit(benchmark::kMillisecond);

void BM_AnalyzePREDReference(benchmark::State& state) {
  RecordedHistory h = RecordHistory(static_cast<int>(state.range(0)));
  const ProcessSchedule& history = h.scheduler->history();
  for (auto _ : state) {
    auto outcome = AnalyzePREDReference(history, h.scheduler->conflict_spec());
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["events"] = static_cast<double>(history.size());
  state.SetComplexityN(static_cast<int64_t>(history.size()));
}
BENCHMARK(BM_AnalyzePREDReference)
    ->Arg(kE26Rounds[0])
    ->Arg(kE26Rounds[1])
    ->Arg(kE26Rounds[2])
    ->Arg(kE26Rounds[3])
    ->Unit(benchmark::kMillisecond);

void BM_CompleteSchedule(benchmark::State& state) {
  GeneratedSchedule w =
      MakeWorkload(static_cast<int>(state.range(0)), 0.1, 5);
  for (auto _ : state) {
    auto completed = CompleteSchedule(w.schedule);
    benchmark::DoNotOptimize(completed);
  }
}
BENCHMARK(BM_CompleteSchedule)->Arg(2)->Arg(8)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  PrintComparison();
  PrintE26();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
