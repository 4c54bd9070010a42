// The scheduler's service-footprint index against a brute-force scan.
//
// VirtualCompletionTargets (the §3.5 completion pre-order) reads the
// footprint rows of a service's conflict partners instead of walking the
// whole active set. The sweep below drives ProcessGenerator workloads with
// invocation failures, compensations, ◁ alternatives and deadlock victims,
// with runtime reclaim on and off and across Crash + Recover, and after
// every Step checks, for every interned service:
//
//   * the footprint row holds exactly the active processes whose
//     definition declares an activity on the service, ascending;
//   * the indexed targets equal the pre-index scan (every active process
//     but `self` whose remainder conflicts), for self = none and for self
//     = the lowest and the highest active process.
//
// Knob: TPM_FOOTPRINT_SEED_BASE (default 1) shifts every generator seed; a
// failure prints the base that reproduces it.
//
// The cost test counts the process views VirtualCompletionTargets asks
// for — every RemainderConflicts evaluation needs one — on E23's world
// shape: commuting escrow payments must cost nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "core/admission.h"
#include "core/scheduler.h"
#include "log/recovery_log.h"
#include "subsystem/escrow_subsystem.h"
#include "workload/process_generator.h"

namespace tpm {
namespace {

uint64_t SeedBase() {
  const char* value = std::getenv("TPM_FOOTPRINT_SEED_BASE");
  if (value == nullptr || *value == '\0') return 1;
  return std::strtoull(value, nullptr, 10);
}

// The active set as the view reports it, ascending.
std::vector<SchedulerView::ProcessView> ActiveViews(const SchedulerView& view,
                                                    int64_t max_pid) {
  std::vector<SchedulerView::ProcessView> active;
  for (int64_t p = 1; p <= max_pid; ++p) {
    std::optional<SchedulerView::ProcessView> v = view.FindProcess(ProcessId(p));
    if (v.has_value() && v->state->IsActive()) active.push_back(*v);
  }
  return active;
}

// The pre-index definition of the §3.5 targets: walk every active process.
std::vector<ProcessId> ScanTargets(
    const SchedulerView& view,
    const std::vector<SchedulerView::ProcessView>& active, ProcessId self,
    ServiceId service) {
  std::vector<ProcessId> targets;
  for (const SchedulerView::ProcessView& other : active) {
    if (other.pid == self) continue;
    if (RemainderConflicts(view, other, service)) targets.push_back(other.pid);
  }
  return targets;
}

// Checks the index against the scan for every interned service; returns
// false (after recording failures) on the first mismatch.
bool IndexMatchesScan(const TransactionalProcessScheduler& scheduler,
                      int64_t max_pid, const std::string& label) {
  const SchedulerView& view = scheduler.admission_view();
  const ConflictSpec& spec = view.conflict_spec();
  const std::vector<SchedulerView::ProcessView> active =
      ActiveViews(view, max_pid);
  // `self` is dropped before the predicate runs: no caller, the lowest
  // and the highest active pid cover the cases.
  std::vector<ProcessId> selves = {ProcessId()};
  if (!active.empty()) {
    selves.push_back(active.front().pid);
    selves.push_back(active.back().pid);
  }
  for (size_t i = 0; i < spec.NumServices(); ++i) {
    const ServiceId service = spec.ServiceAt(i);
    const std::span<const ProcessId> active_row =
        view.ActiveOnService(service);
    const std::vector<ProcessId> row(active_row.begin(), active_row.end());
    std::vector<ProcessId> expected_row;
    for (const SchedulerView::ProcessView& p : active) {
      for (const ActivityDecl& decl : p.def->activities()) {
        if (decl.service == service) {
          expected_row.push_back(p.pid);
          break;
        }
      }
    }
    EXPECT_EQ(row, expected_row) << label << " footprint row of " << service;
    if (row != expected_row) return false;
    for (ProcessId self : selves) {
      const std::vector<ProcessId> indexed =
          VirtualCompletionTargets(view, self, service);
      const std::vector<ProcessId> scanned =
          ScanTargets(view, active, self, service);
      EXPECT_EQ(indexed, scanned)
          << label << " targets of " << service << " for self P" << self;
      if (indexed != scanned) return false;
    }
  }
  return true;
}

struct SweepConfig {
  const char* label;
  DeferMode defer;
  bool reclaim;
  double failure;
  int pool;
};

struct Coverage {
  int64_t failed_invocations = 0;
  int64_t compensations = 0;
  int64_t alternatives = 0;
  int64_t deadlock_victims = 0;
  int64_t recovered_in_flight = 0;
  int64_t checks = 0;
};

// One run: submit, Step with checks, crash mid-run, recover, submit more
// (re-submitting aborted definitions) and Step to the end with checks.
void RunSweep(const SweepConfig& config, uint64_t seed, Coverage* coverage) {
  const std::string label =
      StrCat("TPM_FOOTPRINT_SEED_BASE=", SeedBase(), " [", config.label,
             " seed ", seed, "]");
  SyntheticUniverse universe(3, 6);
  for (const auto& item : universe.items()) {
    for (KvSubsystem* subsystem : universe.subsystems()) {
      if (subsystem->id() == item.subsystem) {
        subsystem->SetFailureProbability(item.add, config.failure);
      }
    }
  }
  ProcessShape shape;
  shape.items_per_process = 3;
  shape.nested_probability = 0.5;
  ProcessGenerator generator(&universe, shape, seed);
  generator.RestrictItems(0, static_cast<size_t>(config.pool));

  SchedulerOptions options;
  options.defer_mode = config.defer;
  options.reclaim_terminated = config.reclaim;
  RecoveryLog log;
  TransactionalProcessScheduler scheduler(options, &log);
  ASSERT_TRUE(universe.RegisterAll(&scheduler).ok());

  std::map<std::string, const ProcessDef*> defs_by_name;
  std::vector<const ProcessDef*> defs;
  for (int i = 0; i < 12; ++i) {
    Result<const ProcessDef*> def = generator.Generate(StrCat("f", i));
    if (!def.ok()) continue;
    defs.push_back(*def);
    defs_by_name[(*def)->name()] = *def;
  }
  ASSERT_FALSE(defs.empty()) << label;

  int64_t max_pid = 0;
  auto submit_all = [&](const std::vector<const ProcessDef*>& batch) {
    std::map<ProcessId, const ProcessDef*> pids;
    for (const ProcessDef* def : batch) {
      Result<ProcessId> pid = scheduler.Submit(def);
      if (!pid.ok()) continue;
      max_pid = std::max(max_pid, pid->value());
      pids[*pid] = def;
    }
    return pids;
  };
  auto step_to_end = [&](int64_t max_steps) -> bool {
    for (int64_t s = 0; s < max_steps; ++s) {
      Result<bool> more = scheduler.Step();
      EXPECT_TRUE(more.ok()) << label << ": " << more.status();
      if (!more.ok()) return false;
      ++coverage->checks;
      if (!IndexMatchesScan(scheduler, max_pid, label)) return false;
      if (!*more) return true;
    }
    return true;
  };

  submit_all(defs);
  ASSERT_TRUE(IndexMatchesScan(scheduler, max_pid, label + " after submit"));
  // Run part-way, then crash with processes in flight.
  const int64_t before_crash = 3 + static_cast<int64_t>(seed % 5);
  ASSERT_TRUE(step_to_end(before_crash));
  coverage->recovered_in_flight += static_cast<int64_t>(
      ActiveViews(scheduler.admission_view(), max_pid).size());

  scheduler.Crash();
  ASSERT_TRUE(IndexMatchesScan(scheduler, max_pid, label + " after crash"));
  Status recovered = scheduler.Recover(defs_by_name);
  ASSERT_TRUE(recovered.ok()) << label << ": " << recovered;
  ASSERT_TRUE(IndexMatchesScan(scheduler, max_pid, label + " after recover"));

  // The scheduler keeps going: every definition again, then up to two
  // retries of those that aborted.
  std::vector<const ProcessDef*> batch = defs;
  for (int round = 0; round < 3 && !batch.empty(); ++round) {
    const std::map<ProcessId, const ProcessDef*> pids = submit_all(batch);
    ASSERT_TRUE(step_to_end(100000));
    batch.clear();
    for (const auto& [pid, def] : pids) {
      if (scheduler.OutcomeOf(pid) == ProcessOutcome::kAborted) {
        batch.push_back(def);
      }
    }
  }
  // The counters survive Crash and Recover: they cover the whole run.
  const SchedulerStats& after = scheduler.stats();
  coverage->failed_invocations += after.failed_invocations;
  coverage->compensations += after.compensations;
  coverage->alternatives += after.alternatives_taken;
  coverage->deadlock_victims += after.deadlock_victims;
}

TEST(SchedulerFootprintIndex, MatchesActiveScanAtEveryStep) {
  constexpr SweepConfig kConfigs[] = {
      {"delay/keep", DeferMode::kDelayExecution, false, 0.08, 4},
      {"delay/reclaim", DeferMode::kDelayExecution, true, 0.08, 4},
      {"2pc/keep", DeferMode::kPrepared2PC, false, 0.15, 3},
      {"2pc/reclaim", DeferMode::kPrepared2PC, true, 0.15, 3},
  };
  constexpr uint64_t kSeedsPerConfig = 12;
  Coverage coverage;
  for (const SweepConfig& config : kConfigs) {
    for (uint64_t k = 0; k < kSeedsPerConfig; ++k) {
      RunSweep(config, SeedBase() * 1000 + k, &coverage);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }
  // The sweep must reach the paths that move processes in and out of the
  // active set in unusual ways.
  EXPECT_GT(coverage.failed_invocations, 0);
  EXPECT_GT(coverage.compensations, 0);
  EXPECT_GT(coverage.alternatives, 0);
  EXPECT_GT(coverage.deadlock_victims, 0);
  EXPECT_GT(coverage.recovered_in_flight, 0);
  EXPECT_GT(coverage.checks, 0);
}

// --- Cost on E23's world shape -------------------------------------------

// A SchedulerView over hand-built process states that counts the process
// views it hands out. VirtualCompletionTargets obtains every process it
// evaluates RemainderConflicts on through FindProcess, so the count bounds
// the predicate evaluations from above.
class CountingView : public SchedulerView {
 public:
  explicit CountingView(const ConflictSpec* spec) : spec_(spec) {}

  ProcessId Add(const ProcessDef* def) {
    const ProcessId pid(static_cast<int64_t>(states_.size()) + 1);
    states_.push_back(std::make_unique<ProcessExecutionState>(pid, def));
    defs_.push_back(def);
    for (const ActivityDecl& decl : def->activities()) {
      std::vector<ProcessId>& row = footprint_[decl.service];
      if (row.empty() || row.back() != pid) row.push_back(pid);
    }
    return pid;
  }

  ProcessExecutionState* state(ProcessId pid) {
    return states_[static_cast<size_t>(pid.value() - 1)].get();
  }

  int64_t views() const { return views_; }
  void ResetViews() { views_ = 0; }

  const SchedulerOptions& options() const override { return options_; }
  const ConflictSpec& conflict_spec() const override { return *spec_; }
  const SerializationGraph& serialization_graph() const override {
    return graph_;
  }
  std::optional<ProcessView> FindProcess(ProcessId pid) const override {
    if (pid.value() < 1 || pid.value() > static_cast<int64_t>(states_.size())) {
      return std::nullopt;
    }
    ++views_;
    const size_t slot = static_cast<size_t>(pid.value() - 1);
    return ProcessView{pid, defs_[slot], states_[slot].get()};
  }
  std::span<const ProcessId> EmittersOf(ServiceId) const override {
    return {};
  }
  std::span<const ProcessId> ActiveOnService(
      ServiceId service) const override {
    auto row = footprint_.find(service);
    if (row == footprint_.end()) return {};
    return row->second;
  }

 private:
  const ConflictSpec* spec_;
  SchedulerOptions options_;
  SerializationGraph graph_;
  std::vector<std::unique_ptr<ProcessExecutionState>> states_;
  std::vector<const ProcessDef*> defs_;
  std::map<ServiceId, std::vector<ProcessId>> footprint_;
  mutable int64_t views_ = 0;
};

TEST(SchedulerFootprintIndex, CommutingActiveSetCostsNoPredicateEvaluation) {
  // E23's tenant: one escrow counter, reserve = inc (compensated by dec)
  // -> settle = inc (pivot); every pair of its services commutes. An
  // audit process reads the counter, which conflicts with inc and dec.
  EscrowSubsystem escrow(SubsystemId(100), "escrow0");
  const ServiceId inc_a(1001), dec_a(1002), inc_b(1003), read(1004);
  ASSERT_TRUE(escrow.CreateCounter("c0", 0).ok());
  ASSERT_TRUE(escrow.RegisterIncService(inc_a, "c0").ok());
  ASSERT_TRUE(escrow.RegisterDecService(dec_a, "c0").ok());
  ASSERT_TRUE(escrow.RegisterIncService(inc_b, "c0").ok());
  ASSERT_TRUE(escrow.RegisterReadService(read, "c0").ok());
  ConflictSpec spec;
  escrow.services().DeriveConflicts(&spec);
  for (ServiceId s : escrow.services().AllIds()) spec.RegisterService(s);
  ASSERT_TRUE(spec.PartnersOf(inc_b).size() == 1 &&
              spec.PartnersOf(inc_b)[0] == read);

  ProcessDef pay("pay_t0");
  const ActivityId reserve = pay.AddActivity(
      "reserve", ActivityKind::kCompensatable, inc_a, dec_a);
  const ActivityId settle = pay.AddActivity("settle", ActivityKind::kPivot,
                                            inc_b);
  ASSERT_TRUE(pay.AddEdge(reserve, settle).ok());
  ASSERT_TRUE(pay.Validate().ok());
  ProcessDef audit("audit");
  audit.AddActivity("balance", ActivityKind::kPivot, read);
  ASSERT_TRUE(audit.Validate().ok());

  CountingView view(&spec);
  constexpr int kActive = 2048;
  for (int i = 0; i < kActive; ++i) {
    const ProcessId pid = view.Add(&pay);
    // Half of them are past their reservation, as in a running queue.
    if (i % 2 == 0) {
      ASSERT_TRUE(view.state(pid)->RecordCommit(reserve).ok());
    }
  }
  const ProcessId self(1);
  for (ServiceId service : {inc_a, dec_a, inc_b}) {
    view.ResetViews();
    EXPECT_TRUE(VirtualCompletionTargets(view, self, service).empty());
    EXPECT_EQ(view.views(), 0) << "service " << service;
  }

  // k conflicting processes: at most k evaluations, and all are targets.
  constexpr int kConflicting = 5;
  std::vector<ProcessId> audits;
  for (int i = 0; i < kConflicting; ++i) audits.push_back(view.Add(&audit));
  view.ResetViews();
  EXPECT_EQ(VirtualCompletionTargets(view, self, inc_b), audits);
  EXPECT_LE(view.views(), kConflicting);
}

}  // namespace
}  // namespace tpm
