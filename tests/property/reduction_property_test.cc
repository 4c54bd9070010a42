// Cross-validation of the polynomial reduction decision procedure against
// the exhaustive rewrite-system oracle on random schedules, plus reduction
// invariants.

#include <gtest/gtest.h>

#include <ostream>

#include "core/reduction.h"
#include "workload/schedule_generator.h"

namespace tpm {
namespace {

struct OracleParams {
  int num_processes;
  double conflict_density;
  int iterations;
};

void PrintTo(const OracleParams& p, std::ostream* os) {
  *os << "procs=" << p.num_processes << " density=" << p.conflict_density
      << " n=" << p.iterations;
}

class ReductionOracleSweep : public ::testing::TestWithParam<OracleParams> {};

TEST_P(ReductionOracleSweep, PolynomialCheckerMatchesExhaustiveOracle) {
  const OracleParams params = GetParam();
  Rng rng(500 + params.num_processes * 10 +
          static_cast<uint64_t>(params.conflict_density * 100));
  RandomScheduleConfig config;
  config.num_processes = params.num_processes;
  config.conflict_density = params.conflict_density;
  // Keep processes small so completed schedules stay within oracle reach.
  config.max_compensatable = 2;
  config.max_retriable = 1;

  int compared = 0;
  for (int i = 0; i < params.iterations; ++i) {
    auto generated = GenerateRandomSchedule(config, &rng);
    ASSERT_TRUE(generated.ok());
    auto completed = CompleteSchedule(generated->schedule);
    ASSERT_TRUE(completed.ok());
    std::set<ProcessId> committed;
    for (const auto& [pid, def] : generated->schedule.processes()) {
      if (generated->schedule.IsProcessCommitted(pid)) committed.insert(pid);
    }
    auto oracle = IsReducibleExhaustive(*completed, generated->spec,
                                        committed, /*max_tokens=*/11,
                                        /*max_states=*/500'000);
    if (!oracle.ok()) continue;  // too large for the oracle; skip
    ++compared;
    ReductionOutcome poly =
        ReduceCompletedSchedule(*completed, generated->spec, committed);
    EXPECT_EQ(poly.reducible, *oracle)
        << "disagreement on completed schedule: " << completed->ToString();
  }
  EXPECT_GT(compared, params.iterations / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Densities, ReductionOracleSweep,
    ::testing::Values(OracleParams{2, 0.1, 150}, OracleParams{2, 0.3, 150},
                      OracleParams{2, 0.6, 150}, OracleParams{2, 0.9, 100},
                      OracleParams{3, 0.2, 100}, OracleParams{3, 0.5, 100}));

TEST(ReductionInvariants, ResidualContainsNoCancellablePairs) {
  Rng rng(321);
  RandomScheduleConfig config;
  config.num_processes = 3;
  config.conflict_density = 0.3;
  for (int i = 0; i < 200; ++i) {
    auto generated = GenerateRandomSchedule(config, &rng);
    ASSERT_TRUE(generated.ok());
    auto outcome = AnalyzeRED(generated->schedule, generated->spec);
    ASSERT_TRUE(outcome.ok());
    // Maximal pruning: no original/inverse pair without a conflicting
    // activity between them may survive.
    const auto& residual = outcome->residual;
    for (size_t a = 0; a < residual.size(); ++a) {
      if (residual[a].inverse) continue;
      for (size_t b = a + 1; b < residual.size(); ++b) {
        if (residual[b].process != residual[a].process ||
            residual[b].activity != residual[a].activity ||
            !residual[b].inverse) {
          continue;
        }
        bool blocked = false;
        ServiceId service_a =
            generated->schedule.ServiceOf(residual[a]);
        for (size_t k = a + 1; k < b; ++k) {
          if (residual[k].process == residual[a].process) continue;
          if (generated->spec.ServicesConflict(
                  service_a, generated->schedule.ServiceOf(residual[k]))) {
            blocked = true;
            break;
          }
        }
        EXPECT_TRUE(blocked)
            << "cancellable pair survived reduction in "
            << generated->schedule.ToString();
      }
    }
  }
}

TEST(ReductionInvariants, ReducibleYieldsSerializationOrder) {
  Rng rng(654);
  RandomScheduleConfig config;
  config.num_processes = 3;
  config.conflict_density = 0.2;
  for (int i = 0; i < 200; ++i) {
    auto generated = GenerateRandomSchedule(config, &rng);
    ASSERT_TRUE(generated.ok());
    auto outcome = AnalyzeRED(generated->schedule, generated->spec);
    ASSERT_TRUE(outcome.ok());
    if (outcome->reducible) {
      EXPECT_EQ(outcome->serialization_order.size(),
                generated->schedule.processes().size());
      EXPECT_TRUE(outcome->cycle.empty());
    } else {
      EXPECT_GE(outcome->cycle.size(), 3u);
      EXPECT_EQ(outcome->cycle.front(), outcome->cycle.back());
    }
  }
}

TEST(ReductionInvariants, ConflictFreeSchedulesAlwaysReduce) {
  Rng rng(987);
  RandomScheduleConfig config;
  config.num_processes = 4;
  config.conflict_density = 0.0;
  for (int i = 0; i < 100; ++i) {
    auto generated = GenerateRandomSchedule(config, &rng);
    ASSERT_TRUE(generated.ok());
    auto red = IsRED(generated->schedule, generated->spec);
    ASSERT_TRUE(red.ok());
    EXPECT_TRUE(*red);
  }
}

}  // namespace
}  // namespace tpm
