// SchedulerStats is one counter table (kSchedulerStatsCounters) behind
// MergeFrom, operator== and Fingerprint. The goldens below pin the
// fingerprints of a value with a distinct number in every field, so a
// reordered or dropped table entry, which would silently change every
// stats fingerprint the lockstep and determinism tests compare, fails
// here.

#include <cstdint>
#include <iterator>

#include <gtest/gtest.h>

#include "core/scheduler_options.h"

namespace tpm {
namespace {

// Named fields, not a walk of the table: a reordered table must change
// the fingerprint. Field k of the declaration order holds
// 1000 + 7 (k + 1) (k + 3); the base holds 5 (k + 1).
void FillDistinct(SchedulerStats* stats, SchedulerStats* base) {
  stats->steps = 1021;
  base->steps = 5;
  stats->virtual_time = 1056;
  base->virtual_time = 10;
  stats->activities_committed = 1105;
  base->activities_committed = 15;
  stats->failed_invocations = 1168;
  base->failed_invocations = 20;
  stats->compensations = 1245;
  base->compensations = 25;
  stats->deferrals = 1336;
  base->deferrals = 30;
  stats->blocked_by_locks = 1441;
  base->blocked_by_locks = 35;
  stats->alternatives_taken = 1560;
  base->alternatives_taken = 40;
  stats->processes_committed = 1693;
  base->processes_committed = 45;
  stats->processes_aborted = 1840;
  base->processes_aborted = 50;
  stats->deadlock_victims = 2001;
  base->deadlock_victims = 55;
  stats->prepared_branches = 2176;
  base->prepared_branches = 60;
  stats->quasi_commit_admissions = 2365;
  base->quasi_commit_admissions = 65;
  stats->cascading_aborts = 2568;
  base->cascading_aborts = 70;
  stats->irrecoverable_cascades = 2785;
  base->irrecoverable_cascades = 75;
  stats->commit_waits = 3016;
  base->commit_waits = 80;
  stats->forced_executions = 3261;
  base->forced_executions = 85;
  stats->certified_violations = 3520;
  base->certified_violations = 90;
  stats->recovered_log_anomalies = 3793;
  base->recovered_log_anomalies = 95;
  stats->breaker_trips = 4080;
  base->breaker_trips = 100;
  stats->deadline_failures = 4381;
  base->deadline_failures = 105;
  stats->parked_activities = 4696;
  base->parked_activities = 110;
  stats->resumed_activities = 5025;
  base->resumed_activities = 115;
  stats->degraded_switches = 5368;
  base->degraded_switches = 120;
  stats->spanning_admitted = 5725;
  base->spanning_admitted = 125;
  stats->cross_shard_prepares = 6096;
  base->cross_shard_prepares = 130;
  stats->in_doubt_resolved = 6481;
  base->in_doubt_resolved = 135;
}

TEST(SchedulerStatsTest, FingerprintMatchesGolden) {
  ASSERT_EQ(std::size(kSchedulerStatsCounters), 27u);
  SchedulerStats stats;
  SchedulerStats base;
  FillDistinct(&stats, &base);
  EXPECT_EQ(stats.steps, 1021);
  EXPECT_EQ(stats.in_doubt_resolved, 1000 + 7 * 27 * 29);
  EXPECT_EQ(stats.Fingerprint(), 0xb598ba49c75d5b02ull);
  // MergeFrom walks the same table: every counter sums, virtual_time maxes.
  SchedulerStats merged = base;
  merged.MergeFrom(stats);
  EXPECT_EQ(merged.virtual_time, stats.virtual_time);
  EXPECT_EQ(merged.Fingerprint(), 0x96a060f5e3fb08adull);
}

TEST(SchedulerStatsTest, EqualityComparesEveryCounter) {
  SchedulerStats stats;
  SchedulerStats base;
  FillDistinct(&stats, &base);
  EXPECT_EQ(stats, stats);
  EXPECT_NE(stats, base);
  for (int64_t SchedulerStats::*counter : kSchedulerStatsCounters) {
    SchedulerStats changed = stats;
    ++(changed.*counter);
    EXPECT_NE(changed, stats);
  }
}

}  // namespace
}  // namespace tpm
