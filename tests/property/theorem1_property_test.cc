// Property sweep for Theorem 1 over thousands of random schedules at
// varying conflict densities.
//
// What is asserted (see EXPERIMENTS.md E9 for discussion):
//  * PRED => serializable (committed projection) — strict, part 1 of the
//    theorem.
//  * PRED => the *enforceable core* of process-recoverability: no
//    conflicting pair a_ik <<_S a_jl where P_j commits while a_ik is
//    compensatable and P_i does not commit (the compensation a_ik^-1 then
//    appears in every completion and is permanently blocked by P_j's
//    frozen conflicting activity — the cycle of Example 8).
//  * Full syntactic Def. 11 is *stricter* than PRED: the sweep must find
//    PRED schedules violating it (the paper's proof of Theorem 1 argues
//    modally — completions "may" conflict; when they happen not to, PRED
//    holds although Def. 11's clause ordering is violated).
//  * Serializable does not imply PRED, and RED is not prefix closed
//    (§3.4) — both witnessed by found schedules.

#include <gtest/gtest.h>

#include <ostream>

#include "core/pred.h"
#include "core/recoverability.h"
#include "core/serializability.h"
#include "workload/schedule_generator.h"

namespace tpm {
namespace {

struct SweepParams {
  int num_processes;
  double conflict_density;
  int iterations;
};

void PrintTo(const SweepParams& p, std::ostream* os) {
  *os << "procs=" << p.num_processes << " density=" << p.conflict_density
      << " n=" << p.iterations;
}

// The enforceable core of Def. 11: a clause-1 violation whose earlier
// activity *will actually be compensated* by the completion of its
// (non-committing) process contradicts PRED — the compensation appears in
// every completed prefix and is permanently blocked by the committed
// dependent's frozen conflicting activity. Quasi-committed activities
// (before the last state-determining element of an F-REC process, Example
// 10) are never compensated and are excluded.
bool ViolatesEnforceableProcRec(const ProcessSchedule& s,
                                const ConflictSpec& spec) {
  const auto& events = s.events();
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].type != EventType::kActivity ||
        events[i].aborted_invocation || events[i].act.inverse) {
      continue;
    }
    const ProcessId pi = events[i].act.process;
    const ProcessDef* def_i = s.DefOf(pi);
    const ActivityId act = events[i].act.activity;
    if (def_i->KindOf(act) != ActivityKind::kCompensatable) continue;
    if (s.IsProcessCommitted(pi)) continue;  // compensation never runs

    // Will the completion of P_i compensate this activity? Only if it is
    // still effective and not quasi-committed.
    const ProcessExecutionState* state = s.StateOf(pi);
    if (!state->IsCommitted(act) || state->IsCompensated(act)) continue;
    const std::vector<ActivityId> effective = state->EffectiveCommitted();
    size_t last_noncomp = SIZE_MAX;
    size_t act_pos = SIZE_MAX;
    for (size_t k = 0; k < effective.size(); ++k) {
      if (IsNonCompensatable(def_i->KindOf(effective[k]))) last_noncomp = k;
      if (effective[k] == act) act_pos = k;
    }
    const bool will_be_compensated =
        last_noncomp == SIZE_MAX ||
        (act_pos != SIZE_MAX && act_pos > last_noncomp);
    if (!will_be_compensated) continue;

    for (size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].type != EventType::kActivity ||
          events[j].aborted_invocation) {
        continue;
      }
      if (!s.InstancesConflict(events[i].act, events[j].act, spec)) continue;
      if (s.IsProcessCommitted(events[j].act.process)) return true;
    }
  }
  return false;
}

class Theorem1Sweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(Theorem1Sweep, PredImpliesSerializabilityAndEnforceableProcRec) {
  const SweepParams params = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(params.conflict_density * 100) +
          params.num_processes);
  RandomScheduleConfig config;
  config.num_processes = params.num_processes;
  config.conflict_density = params.conflict_density;

  int pred_count = 0;
  for (int i = 0; i < params.iterations; ++i) {
    auto generated = GenerateRandomSchedule(config, &rng);
    ASSERT_TRUE(generated.ok()) << generated.status();
    auto pred = IsPRED(generated->schedule, generated->spec);
    ASSERT_TRUE(pred.ok());
    if (!*pred) continue;
    ++pred_count;
    ConflictGraphOptions committed_only;
    committed_only.committed_projection = true;
    EXPECT_TRUE(
        IsSerializable(generated->schedule, generated->spec, committed_only))
        << generated->schedule.ToString();
    EXPECT_FALSE(
        ViolatesEnforceableProcRec(generated->schedule, generated->spec))
        << generated->schedule.ToString();
  }
  if (params.conflict_density < 0.5) {
    EXPECT_GT(pred_count, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Densities, Theorem1Sweep,
    ::testing::Values(SweepParams{2, 0.0, 200}, SweepParams{2, 0.1, 400},
                      SweepParams{2, 0.3, 400}, SweepParams{2, 0.6, 300},
                      SweepParams{3, 0.1, 300}, SweepParams{3, 0.3, 300},
                      SweepParams{4, 0.2, 200}));

TEST(Theorem1Converse, SerializableDoesNotImplyPred) {
  Rng rng(77);
  RandomScheduleConfig config;
  config.num_processes = 2;
  config.conflict_density = 0.3;
  int serializable_not_pred = 0;
  for (int i = 0; i < 500; ++i) {
    auto generated = GenerateRandomSchedule(config, &rng);
    ASSERT_TRUE(generated.ok());
    if (!IsSerializable(generated->schedule, generated->spec)) continue;
    auto pred = IsPRED(generated->schedule, generated->spec);
    ASSERT_TRUE(pred.ok());
    if (!*pred) ++serializable_not_pred;
  }
  EXPECT_GT(serializable_not_pred, 0);
}

TEST(Theorem1Converse, RedIsNotPrefixClosed) {
  Rng rng(99);
  RandomScheduleConfig config;
  config.num_processes = 2;
  config.conflict_density = 0.3;
  int red_not_pred = 0;
  for (int i = 0; i < 600; ++i) {
    auto generated = GenerateRandomSchedule(config, &rng);
    ASSERT_TRUE(generated.ok());
    auto red = IsRED(generated->schedule, generated->spec);
    ASSERT_TRUE(red.ok());
    if (!*red) continue;
    auto pred = IsPRED(generated->schedule, generated->spec);
    ASSERT_TRUE(pred.ok());
    if (!*pred) ++red_not_pred;
  }
  EXPECT_GT(red_not_pred, 0);
}

// Def. 11 is strictly stronger than PRED on fixed schedules: the sweep
// finds PRED schedules whose completions happen not to conflict although
// the syntactic clause ordering is violated.
TEST(Theorem1Converse, SyntacticProcRecIsStricterThanPred) {
  Rng rng(111);
  RandomScheduleConfig config;
  config.num_processes = 2;
  config.conflict_density = 0.25;
  int pred_but_not_syntactic = 0;
  for (int i = 0; i < 800; ++i) {
    auto generated = GenerateRandomSchedule(config, &rng);
    ASSERT_TRUE(generated.ok());
    auto pred = IsPRED(generated->schedule, generated->spec);
    ASSERT_TRUE(pred.ok());
    if (!*pred) continue;
    if (!IsProcessRecoverable(generated->schedule, generated->spec)) {
      ++pred_but_not_syntactic;
    }
  }
  EXPECT_GT(pred_but_not_syntactic, 0);
}

}  // namespace
}  // namespace tpm
