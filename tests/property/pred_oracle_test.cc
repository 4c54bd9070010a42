// Cross-validation of the one-pass PRED check (AnalyzePRED) against the
// per-prefix definition (AnalyzePREDReference): both must agree on
// `prefix_reducible` and `violating_prefix`, and every reported cycle must
// be a real cycle of the violating prefix's residual. Inputs: random
// schedules with aborts, early stops, effect-free services and ◁
// alternatives; recovered sharded-runtime histories with spanning
// processes (per shard and the merged global projection); crash cuts with
// everything submitted at once, so most processes are active at the cut,
// in a conflict-free escrow world and in the order world; fault-domain
// runs under the unsafe protocol, which yield non-PRED histories; and
// named regressions, among them one per case in which the one pass
// carries a prefix's verdict to the next. On recovered histories the
// one pass must run at most one tail trial per prefix whose S̃ changed.
// The sweep also checks that the per-service Proc-REC analysis reports the
// same violations as the pairwise suffix rescan it replaced.
//
// Knob: TPM_PRED_ORACLE_SEED_BASE (default 1) shifts every random seed; a
// failure prints the seed that reproduces it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/completed_schedule.h"
#include "core/completion.h"
#include "core/pred.h"
#include "core/recoverability.h"
#include "core/reduction.h"
#include "core/scheduler.h"
#include "runtime/cross_shard_agent.h"
#include "runtime/sharded_runtime.h"
#include "subsystem/escrow_subsystem.h"
#include "testing/fault_injector.h"
#include "workload/fault_workload.h"
#include "workload/schedule_generator.h"
#include "workload/sharded_world.h"

namespace tpm {
namespace {

uint64_t SeedBase() {
  const char* value = std::getenv("TPM_PRED_ORACLE_SEED_BASE");
  if (value == nullptr || *value == '\0') return 1;
  return std::strtoull(value, nullptr, 10);
}

// Every consecutive pair of `cycle` must be an edge of the residual of the
// first `prefix` events: some residual activity of the first process
// precedes a conflicting residual activity of the second.
void ExpectResidualCycle(const ProcessSchedule& schedule,
                         const ConflictSpec& spec, size_t prefix,
                         const std::vector<ProcessId>& cycle,
                         const std::string& label) {
  ASSERT_GE(cycle.size(), 3u) << label;
  EXPECT_EQ(cycle.front(), cycle.back()) << label;
  auto red = AnalyzeRED(schedule.Prefix(prefix), spec);
  ASSERT_TRUE(red.ok()) << label << ": " << red.status();
  const std::vector<ActivityInstance>& residual = red->residual;
  for (size_t c = 0; c + 1 < cycle.size(); ++c) {
    bool edge = false;
    for (size_t i = 0; i < residual.size() && !edge; ++i) {
      if (residual[i].process != cycle[c]) continue;
      for (size_t j = i + 1; j < residual.size() && !edge; ++j) {
        edge = residual[j].process == cycle[c + 1] &&
               schedule.InstancesConflict(residual[i], residual[j], spec);
      }
    }
    EXPECT_TRUE(edge) << label << ": no residual conflict P" << cycle[c]
                      << " -> P" << cycle[c + 1];
  }
}

// Returns 1 when the schedule is not PRED (so callers can count), 0 when
// it is.
int ExpectAgreement(const ProcessSchedule& schedule, const ConflictSpec& spec,
                    const std::string& label) {
  auto fast = AnalyzePRED(schedule, spec);
  auto reference = AnalyzePREDReference(schedule, spec);
  EXPECT_EQ(fast.ok(), reference.ok())
      << label << ": " << fast.status() << " vs " << reference.status();
  if (!fast.ok() || !reference.ok()) return 0;
  EXPECT_EQ(fast->prefix_reducible, reference->prefix_reducible)
      << label << ": " << fast->ToString() << " vs " << reference->ToString()
      << "\n" << schedule.ToString();
  EXPECT_EQ(fast->violating_prefix, reference->violating_prefix)
      << label << "\n" << schedule.ToString();
  if (fast->prefix_reducible) return 0;
  ExpectResidualCycle(schedule, spec, fast->violating_prefix, fast->cycle,
                      label + " (one-pass cycle)");
  return 1;
}

// Proc-REC as it was computed before the one-sweep version: commit
// positions in a map, and a suffix rescan per conflicting pair.
std::vector<ProcRecViolation> ProcRecByRescan(const ProcessSchedule& schedule,
                                              const ConflictSpec& spec) {
  std::vector<ProcRecViolation> violations;
  const auto& events = schedule.events();
  std::map<ProcessId, size_t> commit_pos;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].type == EventType::kCommit) {
      commit_pos[events[i].process] = i;
    }
  }
  auto next_non_comp = [&](ProcessId pid, size_t from) -> size_t {
    const ProcessDef* def = schedule.DefOf(pid);
    for (size_t k = from + 1; k < events.size(); ++k) {
      const ScheduleEvent& e = events[k];
      if (e.type != EventType::kActivity || e.aborted_invocation) continue;
      if (e.act.process != pid || e.act.inverse) continue;
      if (IsNonCompensatable(def->KindOf(e.act.activity))) return k;
    }
    return SIZE_MAX;
  };
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].type != EventType::kActivity ||
        events[i].aborted_invocation) {
      continue;
    }
    for (size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].type != EventType::kActivity ||
          events[j].aborted_invocation ||
          !schedule.InstancesConflict(events[i].act, events[j].act, spec)) {
        continue;
      }
      const ProcessId pi = events[i].act.process;
      const ProcessId pj = events[j].act.process;
      auto ci = commit_pos.find(pi);
      auto cj = commit_pos.find(pj);
      if (cj != commit_pos.end() &&
          (ci == commit_pos.end() || ci->second > cj->second)) {
        violations.push_back({events[i].act, events[j].act, 1});
      }
      size_t a_jm = next_non_comp(pj, j);
      size_t a_in = next_non_comp(pi, i);
      if (a_jm != SIZE_MAX && a_in != SIZE_MAX && a_jm < a_in) {
        violations.push_back({events[i].act, events[j].act, 2});
      }
    }
  }
  return violations;
}

void ExpectSameProcRec(const ProcessSchedule& schedule,
                       const ConflictSpec& spec, const std::string& label) {
  std::vector<ProcRecViolation> expected = ProcRecByRescan(schedule, spec);
  ProcRecOutcome actual = AnalyzeProcessRecoverability(schedule, spec);
  EXPECT_EQ(actual.process_recoverable, expected.empty()) << label;
  ASSERT_EQ(actual.violations.size(), expected.size()) << label;
  for (size_t v = 0; v < expected.size(); ++v) {
    EXPECT_EQ(actual.violations[v].ToString(), expected[v].ToString())
        << label;
  }
}

// The in-place committed check (AnalyzeCommittedRecoverability) against
// the projection it reads without building: the same violations, in the
// same order. Returns the number of violations.
size_t ExpectSameCommittedProcRec(const ProcessSchedule& schedule,
                                  const ConflictSpec& spec,
                                  const std::string& label) {
  const ProcRecOutcome projected =
      AnalyzeProcessRecoverability(CommittedProjection(schedule), spec);
  const ProcRecOutcome in_place =
      AnalyzeCommittedRecoverability(schedule, spec);
  EXPECT_EQ(in_place.process_recoverable, projected.process_recoverable)
      << label;
  EXPECT_EQ(in_place.violations.size(), projected.violations.size())
      << label;
  for (size_t v = 0; v < std::min(in_place.violations.size(),
                                   projected.violations.size());
       ++v) {
    EXPECT_EQ(in_place.violations[v].ToString(),
              projected.violations[v].ToString())
        << label << " violation " << v;
  }
  return projected.violations.size();
}

// --- The completion memo, held to a recomputation without it ---

// The merged completions of `pids` in S̃, computed from scratch on
// `expanded` without CompletionBuilder's memo: ComputeCompletion on each
// process's state, every step checked to append legally, and each inverse
// placed by the latest commit of its own original in `expanded` (Lemma
// 2). Backward steps first, by descending position; then forward steps in
// `pids` order and completion order.
Result<std::vector<ActivityInstance>> MergeWithoutMemo(
    const ProcessSchedule& expanded, const std::vector<ProcessId>& pids) {
  struct Keyed {
    bool forward;
    size_t position;
    size_t rank;
    size_t index;
    ActivityInstance act;
  };
  std::vector<Keyed> keyed;
  for (size_t rank = 0; rank < pids.size(); ++rank) {
    const ProcessId pid = pids[rank];
    const ProcessExecutionState* state = expanded.StateOf(pid);
    if (state == nullptr) return Status::NotFound(StrCat("no P", pid));
    TPM_ASSIGN_OR_RETURN(Completion completion, ComputeCompletion(*state));
    ProcessExecutionState probe = *state;
    for (size_t i = 0; i < completion.steps.size(); ++i) {
      const CompletionStep& step = completion.steps[i];
      Status legal = step.inverse ? probe.RecordCompensation(step.activity)
                                  : probe.CheckCommitLegal(step.activity);
      if (legal.ok() && !step.inverse) legal = probe.RecordCommit(step.activity);
      TPM_RETURN_IF_ERROR(legal);
      const ActivityInstance original{pid, step.activity, false};
      size_t position = 0;
      for (size_t k = 0; step.inverse && k < expanded.size(); ++k) {
        const ScheduleEvent& e = expanded.events()[k];
        if (e.type == EventType::kActivity && !e.aborted_invocation &&
            e.act == original) {
          position = k;
        }
      }
      keyed.push_back({!step.inverse, step.inverse ? position : 0, rank, i,
                       {pid, step.activity, step.inverse}});
    }
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.forward != b.forward) return !a.forward;
    if (!a.forward && a.position != b.position) {
      return a.position > b.position;
    }
    return std::tie(a.rank, a.index) < std::tie(b.rank, b.index);
  });
  std::vector<ActivityInstance> merged;
  for (const Keyed& step : keyed) merged.push_back(step.act);
  return merged;
}

// CompleteSchedule without the memo: every abort expanded in place by
// MergeWithoutMemo, then the group abort of the processes left active.
Result<ProcessSchedule> CompleteWithoutMemo(const ProcessSchedule& schedule) {
  ProcessSchedule expanded;
  for (const auto& [pid, def] : schedule.processes()) {
    TPM_RETURN_IF_ERROR(expanded.AddProcess(pid, def));
  }
  auto expand_abort = [&expanded](const std::vector<ProcessId>& pids) {
    Result<std::vector<ActivityInstance>> merged =
        MergeWithoutMemo(expanded, pids);
    if (!merged.ok()) return merged.status();
    for (const ActivityInstance& act : *merged) {
      TPM_RETURN_IF_ERROR(expanded.Append(ScheduleEvent::Activity(act)));
    }
    for (ProcessId pid : pids) {
      TPM_RETURN_IF_ERROR(expanded.Append(ScheduleEvent::Commit(pid)));
    }
    return Status::OK();
  };
  for (const ScheduleEvent& event : schedule.events()) {
    switch (event.type) {
      case EventType::kActivity:
      case EventType::kCommit:
        TPM_RETURN_IF_ERROR(expanded.Append(event, /*enforce_legal=*/false));
        break;
      case EventType::kAbort:
        TPM_RETURN_IF_ERROR(expand_abort({event.process}));
        break;
      case EventType::kGroupAbort:
        TPM_RETURN_IF_ERROR(expand_abort(event.group));
        break;
    }
  }
  const std::vector<ProcessId> active = expanded.ActiveProcesses();
  if (!active.empty()) TPM_RETURN_IF_ERROR(expand_abort(active));
  return expanded;
}

std::vector<std::string> Rendered(const std::vector<ActivityInstance>& acts) {
  std::vector<std::string> out;
  for (const ActivityInstance& act : acts) {
    out.push_back(ActivityInstanceToString(act));
  }
  return out;
}

// Holds CompletionBuilder, memo included, to the recomputation without it.
// The builder is driven one event at a time, keeping every step in its
// tail. Each event's SyncTail must fail exactly where recomputing the
// completions of the processes it touched fails, with the same error, and
// until the first failure the kept tail must be the memo-free merge of the
// active processes. The run goes on past a failure, so a later process
// that reaches a memoised failing state is checked too. CompleteSchedule
// must also match CompleteWithoutMemo, abort expansions included. Returns
// the positions of the events whose SyncTail failed.
std::vector<size_t> ExpectMemoMatchesRecomputation(
    const ProcessSchedule& schedule, const std::string& label) {
  std::vector<size_t> failed;
  CompletionBuilder builder(schedule);
  CompletionBuilder::TailChange change;
  const CompletionBuilder::TailFilter keep_all = [](ServiceId) {
    return true;
  };
  for (size_t n = 0; n < schedule.size(); ++n) {
    const ScheduleEvent& event = schedule.events()[n];
    const Status added = builder.Add(event);
    if (!added.ok()) {
      EXPECT_FALSE(CompleteWithoutMemo(schedule.Prefix(n + 1)).ok())
          << label << " event " << n << ": " << added;
      return failed;
    }
    std::vector<ProcessId> touched;
    switch (event.type) {
      case EventType::kActivity:
        if (!event.aborted_invocation) touched.push_back(event.act.process);
        break;
      case EventType::kCommit:
      case EventType::kAbort:
        touched.push_back(event.process);
        break;
      case EventType::kGroupAbort:
        touched = event.group;
        break;
    }
    std::erase_if(touched, [&](ProcessId pid) {
      return builder.active().count(pid) == 0;
    });
    const Status synced = builder.SyncTail(event, keep_all, &change);
    const Status recomputed =
        MergeWithoutMemo(builder.expanded(), touched).status();
    EXPECT_EQ(synced.ToString(), recomputed.ToString())
        << label << " event " << n;
    if (!synced.ok()) failed.push_back(n);
    if (!failed.empty()) continue;
    auto tail = MergeWithoutMemo(
        builder.expanded(), std::vector<ProcessId>(builder.active().begin(),
                                                   builder.active().end()));
    EXPECT_TRUE(tail.ok()) << label << " event " << n << ": "
                           << tail.status();
    if (!tail.ok()) continue;
    std::vector<ActivityInstance> kept;
    for (const TailStep& step : builder.Tail()) kept.push_back(step.act);
    EXPECT_EQ(Rendered(kept), Rendered(*tail)) << label << " event " << n;
  }
  auto completed = CompleteSchedule(schedule);
  auto recomputed = CompleteWithoutMemo(schedule);
  EXPECT_EQ(completed.status().ToString(), recomputed.status().ToString())
      << label;
  if (completed.ok() && recomputed.ok()) {
    EXPECT_EQ(completed->ToString(), recomputed->ToString()) << label;
  }
  return failed;
}

// The number of prefixes of `schedule` whose S̃, restricted to the tokens
// that can change reducibility, differs from the previous prefix's. Built
// from scratch per prefix: the services of the definitions that conflict
// with one of them, without aborted invocations, and without effect-free
// tokens of processes not committed in the prefix of S (rule 3).
size_t PrefixesThatChangeCompletion(const ProcessSchedule& schedule,
                                    const ConflictSpec& spec) {
  std::set<ServiceId> footprint;
  for (const auto& [pid, def] : schedule.processes()) {
    for (const ActivityDecl& decl : def->activities()) {
      footprint.insert(decl.service);
    }
  }
  std::set<ServiceId> relevant;
  for (ServiceId a : footprint) {
    for (ServiceId b : footprint) {
      if (spec.ServicesConflict(a, b)) relevant.insert(a);
    }
  }
  size_t changed = 0;
  std::vector<ActivityInstance> previous;
  for (size_t n = 1; n <= schedule.size(); ++n) {
    const ProcessSchedule prefix = schedule.Prefix(n);
    auto completed = CompleteSchedule(prefix);
    if (!completed.ok()) return SIZE_MAX;
    std::vector<ActivityInstance> tokens;
    for (const ScheduleEvent& e : completed->events()) {
      if (e.type != EventType::kActivity || e.aborted_invocation) continue;
      const ServiceId service = completed->ServiceOf(e.act);
      if (relevant.count(service) == 0) continue;
      if (spec.IsEffectFreeService(service) &&
          !prefix.IsProcessCommitted(e.act.process)) {
        continue;
      }
      tokens.push_back(e.act);
    }
    if (tokens != previous) ++changed;
    previous = std::move(tokens);
  }
  return changed;
}

// Agreement with the reference, plus the bound on tail trials: one at
// most per prefix whose relevant S̃ changed.
void ExpectAgreementAndTrialBound(const ProcessSchedule& schedule,
                                  const ConflictSpec& spec,
                                  const std::string& label) {
  EXPECT_EQ(ExpectAgreement(schedule, spec, label), 0);
  auto fast = AnalyzePRED(schedule, spec);
  ASSERT_TRUE(fast.ok()) << label << ": " << fast.status();
  EXPECT_LE(fast->tail_trials, PrefixesThatChangeCompletion(schedule, spec))
      << label;
}

struct SweepParams {
  int num_processes;
  double conflict_density;
  double abort_probability;
  double stop_probability;
  double effect_free_probability;
  double alternative_probability;
  int iterations;
};

void PrintTo(const SweepParams& p, std::ostream* os) {
  *os << p.num_processes << " processes, density " << p.conflict_density
      << ", abort " << p.abort_probability << ", stop " << p.stop_probability
      << ", effect-free " << p.effect_free_probability << ", alternatives "
      << p.alternative_probability << ", " << p.iterations << " schedules";
}

class PredOracleSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(PredOracleSweep, OnePassMatchesPerPrefixReference) {
  const SweepParams params = GetParam();
  const uint64_t seed = SeedBase() * 1000003 +
                        static_cast<uint64_t>(params.num_processes) * 101 +
                        static_cast<uint64_t>(params.conflict_density * 1000) +
                        static_cast<uint64_t>(params.iterations);
  Rng rng(seed);
  RandomScheduleConfig config;
  config.num_processes = params.num_processes;
  config.conflict_density = params.conflict_density;
  config.abort_probability = params.abort_probability;
  config.group_abort_probability = params.abort_probability;
  config.stop_probability = params.stop_probability;
  config.effect_free_probability = params.effect_free_probability;
  config.alternative_probability = params.alternative_probability;
  int not_pred = 0;
  size_t committed_violations = 0;
  for (int i = 0; i < params.iterations; ++i) {
    auto generated = GenerateRandomSchedule(config, &rng);
    ASSERT_TRUE(generated.ok()) << generated.status();
    const std::string label =
        StrCat("TPM_PRED_ORACLE_SEED_BASE=", SeedBase(), " rng seed ", seed,
               " schedule #", i);
    not_pred += ExpectAgreement(generated->schedule, generated->spec, label);
    ExpectSameProcRec(generated->schedule, generated->spec, label);
    ExpectSameProcRec(CommittedProjection(generated->schedule),
                      generated->spec, label + " (committed projection)");
    committed_violations += ExpectSameCommittedProcRec(
        generated->schedule, generated->spec, label);
    ExpectMemoMatchesRecomputation(generated->schedule, label);
    if (HasFailure()) return;
  }
  // Both verdicts must be exercised, and the committed check must meet
  // violations.
  EXPECT_GT(not_pred, 0);
  EXPECT_LT(not_pred, params.iterations);
  EXPECT_GT(committed_violations, 0u);
}

// 2,400 random schedules in all.
INSTANTIATE_TEST_SUITE_P(
    Schedules, PredOracleSweep,
    ::testing::Values(
        SweepParams{2, 0.3, 0.0, 0.05, 0.0, 0.0, 300},
        SweepParams{3, 0.2, 0.1, 0.05, 0.0, 0.0, 300},
        SweepParams{3, 0.5, 0.1, 0.10, 0.3, 0.0, 300},
        SweepParams{4, 0.2, 0.05, 0.02, 0.2, 0.5, 300},
        SweepParams{4, 0.4, 0.15, 0.05, 0.0, 0.5, 300},
        SweepParams{5, 0.15, 0.05, 0.02, 0.3, 0.3, 300},
        SweepParams{6, 0.1, 0.05, 0.01, 0.2, 0.3, 300},
        SweepParams{8, 0.05, 0.03, 0.0, 0.1, 0.3, 300}),
    [](const ::testing::TestParamInfo<SweepParams>& info) {
      return StrCat("Config", info.index);
    });

// Rule 3 is not monotone in the prefix: Q's effect-free pair (x, x^-1) is
// invisible while Q runs, so P's enclosing pair (u, u^-1) cancels. When Q
// commits, x and x^-1 come back — R's y keeps them apart — and now block
// P's pair: the prefix ending in C_Q has the cycle P -> Q -> P.
TEST(PredOracleRegression, EffectFreePairReturnsInsideCancelledPair) {
  ProcessDef p("P"), q("Q"), r("R");
  const ServiceId su(1), sx(2), sy(3);
  ActivityId u = p.AddActivity("u", ActivityKind::kCompensatable, su,
                               ServiceId(11));
  ActivityId pp = p.AddActivity("pp", ActivityKind::kPivot, ServiceId(4));
  ASSERT_TRUE(p.AddEdge(u, pp).ok());
  ActivityId x = q.AddActivity("x", ActivityKind::kCompensatable, sx,
                               ServiceId(12));
  ActivityId qp = q.AddActivity("qp", ActivityKind::kPivot, ServiceId(5));
  ASSERT_TRUE(q.AddEdge(x, qp).ok());
  ActivityId y = r.AddActivity("y", ActivityKind::kPivot, sy);
  for (ProcessDef* def : {&p, &q, &r}) ASSERT_TRUE(def->Validate().ok());

  ConflictSpec spec;
  spec.AddConflict(su, sx);
  spec.AddConflict(sx, sy);
  spec.MarkEffectFree(sx);

  const ProcessId kP(1), kQ(2), kR(3);
  ProcessSchedule s;
  ASSERT_TRUE(s.AddProcess(kP, &p).ok());
  ASSERT_TRUE(s.AddProcess(kQ, &q).ok());
  ASSERT_TRUE(s.AddProcess(kR, &r).ok());
  for (const ScheduleEvent& e : {
           ScheduleEvent::Activity({kP, u, false}),
           ScheduleEvent::Activity({kQ, x, false}),
           ScheduleEvent::Activity({kR, y, false}),
           ScheduleEvent::Activity({kQ, x, true}),
           ScheduleEvent::Abort(kP),
           ScheduleEvent::Commit(kR),
           ScheduleEvent::Commit(kQ),
       }) {
    ASSERT_TRUE(s.Append(e).ok()) << e.ToString();
  }

  auto fast = AnalyzePRED(s, spec);
  ASSERT_TRUE(fast.ok()) << fast.status();
  EXPECT_FALSE(fast->prefix_reducible);
  EXPECT_EQ(fast->violating_prefix, 7u);
  EXPECT_EQ(ExpectAgreement(s, spec, "effect-free regression"), 1);
  // Every shorter prefix is PRED: the pair stays cancelled while Q runs.
  for (size_t n = 0; n < s.size(); ++n) {
    auto prefix = AnalyzePRED(s.Prefix(n), spec);
    ASSERT_TRUE(prefix.ok());
    EXPECT_TRUE(prefix->prefix_reducible) << "prefix " << n;
  }
}

// Tail pairs of one process never block each other, even when their
// services conflict: P compensates a2 and then a1 (both on S), and both
// pairs cancel, leaving Y's pivot and its forward step. Were P's pairs
// to block each other, a1 and a1^-1 would survive and close Y -> P -> Y.
TEST(PredOracleRegression, SameProcessTailPairsDoNotBlockEachOther) {
  ProcessDef p("P"), y("Y");
  const ServiceId s(1);
  ActivityId a1 =
      p.AddActivity("a1", ActivityKind::kCompensatable, s, ServiceId(11));
  ActivityId a2 =
      p.AddActivity("a2", ActivityKind::kCompensatable, s, ServiceId(12));
  ActivityId pp = p.AddActivity("pp", ActivityKind::kPivot, ServiceId(2));
  ASSERT_TRUE(p.AddEdge(a1, a2).ok());
  ASSERT_TRUE(p.AddEdge(a2, pp).ok());
  ActivityId y0 = y.AddActivity("y0", ActivityKind::kPivot, s);
  ActivityId yf = y.AddActivity("yf", ActivityKind::kRetriable, s);
  ASSERT_TRUE(y.AddEdge(y0, yf).ok());
  ASSERT_TRUE(p.Validate().ok());
  ASSERT_TRUE(y.Validate().ok());

  ConflictSpec spec;
  spec.AddConflict(s, s);

  const ProcessId kP(1), kY(2);
  ProcessSchedule schedule;
  ASSERT_TRUE(schedule.AddProcess(kP, &p).ok());
  ASSERT_TRUE(schedule.AddProcess(kY, &y).ok());
  ASSERT_TRUE(schedule.Append(ScheduleEvent::Activity({kY, y0, false})).ok());
  ASSERT_TRUE(schedule.Append(ScheduleEvent::Activity({kP, a1, false})).ok());
  ASSERT_TRUE(schedule.Append(ScheduleEvent::Activity({kP, a2, false})).ok());

  auto fast = AnalyzePRED(schedule, spec);
  ASSERT_TRUE(fast.ok()) << fast.status();
  EXPECT_TRUE(fast->prefix_reducible) << fast->ToString();
  EXPECT_EQ(ExpectAgreement(schedule, spec, "same-process tail pairs"), 0);
}

// Recovered sharded histories with spanning processes: a coordinator crash
// at its k-th decision (or none), a fresh incarnation recovers, and then
// every shard history and the merged global projection must get the same
// verdict from both checks. Recover's own verification is switched off so
// a disagreement reports the schedule instead of failing inside Recover.
// The shard histories and the global projection must also be PRED. (The
// crash-free run stops with spans in flight; its global projection used
// to have an irreducible prefix because the merge placed a later slice
// ahead of its predecessor's vote.)
TEST(PredOracleRealHistories, RecoveredSpanningHistories) {
  for (int64_t crash_at : {0, 2, 5}) {
    SCOPED_TRACE(StrCat("crash at decision ", crash_at));
    const std::string wal_dir = ::testing::TempDir() +
                                StrCat("pred_oracle_", crash_at);
    std::filesystem::remove_all(wal_dir);
    ShardedWorld world({.seed = 61 + static_cast<uint64_t>(crash_at),
                        .num_tenants = 3});
    std::vector<const ProcessDef*> defs;
    for (int round = 0; round < 3; ++round) {
      for (int t = 0; t < world.num_tenants(); ++t) {
        defs.push_back(world.MakeOrderProcess(t, StrCat("o", t, "_", round),
                                              round));
        defs.push_back(world.MakeConsumeProcess(
            t, StrCat("c", t, "_", round), round));
      }
      defs.push_back(
          world.MakeSpanningProcess(StrCat("sp", round), round % 3,
                                    (round + 1) % 3));
      defs.push_back(world.MakeSpanningAltProcess(
          StrCat("sa", round), (round + 1) % 3, (round + 2) % 3, round % 3));
    }
    testing::FaultInjector injector;
    ShardedRuntimeOptions options;
    options.num_shards = 3;
    options.mode = TickMode::kLockstep;
    options.log_mode = ShardLogMode::kFile;
    options.wal_dir = wal_dir;
    if (crash_at > 0) {
      injector.ArmAtSite(kCoordCrashSiteDecide, crash_at);
      options.coordinator_crash_listener = &injector;
    }
    {
      ShardedRuntime runtime(options);
      ASSERT_TRUE(world.RegisterAll(&runtime).ok());
      ASSERT_TRUE(runtime.Start().ok());
      for (const ProcessDef* def : defs) {
        ASSERT_NE(def, nullptr);
        (void)runtime.Submit(def);
        ASSERT_TRUE(runtime.Tick(1).ok());
      }
      ASSERT_TRUE(runtime.Tick(40).ok());
      ASSERT_TRUE(runtime.Stop().ok());
    }
    options.coordinator_crash_listener = nullptr;
    options.verify_recovery = false;
    ShardedRuntime recovered(options);
    ASSERT_TRUE(world.RegisterAll(&recovered).ok());
    ASSERT_TRUE(recovered.Start().ok());
    Status status = recovered.Recover(world.DefsByName());
    ASSERT_TRUE(status.ok()) << status;
    ASSERT_TRUE(recovered.Stop().ok());
    for (int shard = 0; shard < recovered.num_shards(); ++shard) {
      TransactionalProcessScheduler* scheduler =
          recovered.shard_scheduler(shard);
      EXPECT_EQ(ExpectAgreement(scheduler->history(),
                                scheduler->conflict_spec(),
                                StrCat("shard ", shard)),
                0);
    }
    auto global = recovered.GlobalProjection();
    ASSERT_TRUE(global.ok()) << global.status();
    EXPECT_GT(global->size(), 0u);
    EXPECT_EQ(ExpectAgreement(*global, recovered.union_spec(), "global"), 0);
    std::filesystem::remove_all(wal_dir);
  }
}

// Fault-domain runs under the unsafe protocol (no PRED admission): seeded
// transient failures force compensations of work that conflicting
// processes already built on, so some histories are not PRED and the two
// checks must agree on where the first irreducible prefix is.
TEST(PredOracleRealHistories, UnsafeFaultDomainHistories) {
  int not_pred = 0;
  const uint64_t base = SeedBase();
  for (uint64_t seed = base; seed < base + 12; ++seed) {
    FaultDomainOptions world_options;
    world_options.num_subsystems = 3;
    world_options.seed = seed;
    world_options.profile.transient_abort_probability = 0.3;
    world_options.profile.latency_ticks = 1;
    FaultDomainWorld world(world_options);
    std::vector<const ProcessDef*> defs;
    // One home subsystem and one key set: every pair of processes
    // conflicts.
    for (int i = 0; i < 4; ++i) {
      defs.push_back(
          world.MakeAlternativeProcess(StrCat("alt", i), 0, 1, 2, 0));
      defs.push_back(world.MakeChainProcess(StrCat("chain", i), 0, 3, 0));
    }
    SchedulerOptions options;
    options.protocol = AdmissionProtocol::kUnsafe;
    options.clock = world.clock();
    options.park_timeout_ticks = 400;
    TransactionalProcessScheduler scheduler(options);
    ASSERT_TRUE(world.RegisterAll(&scheduler).ok());
    for (const ProcessDef* def : defs) {
      ASSERT_NE(def, nullptr);
      ASSERT_TRUE(scheduler.Submit(def).ok());
    }
    ASSERT_TRUE(scheduler.Run(300000).ok());
    not_pred += ExpectAgreement(scheduler.history(), scheduler.conflict_spec(),
                                StrCat("unsafe fault domain seed ", seed));
  }
  EXPECT_GT(not_pred, 0);
}

// --- The carry cases (DESIGN.md §4l) ---

// tail_trials of every prefix: an event is carried when the count does not
// grow over it.
std::vector<size_t> TrialsPerPrefix(const ProcessSchedule& schedule,
                                    const ConflictSpec& spec) {
  std::vector<size_t> trials;
  for (size_t n = 0; n <= schedule.size(); ++n) {
    auto outcome = AnalyzePRED(schedule.Prefix(n), spec);
    trials.push_back(outcome.ok() ? outcome->tail_trials : SIZE_MAX);
  }
  return trials;
}

// P runs two compensatable steps on a self-conflicting service that Q's
// pivot made relevant.
struct TwoStepWorld {
  ProcessDef p{"P"};
  ProcessDef q{"Q"};
  ActivityId a, b, qq;
  ConflictSpec spec;
  ProcessSchedule schedule;
  const ProcessId kP{1}, kQ{2};

  TwoStepWorld() {
    const ServiceId s1(1);
    a = p.AddActivity("a", ActivityKind::kCompensatable, s1, ServiceId(11));
    b = p.AddActivity("b", ActivityKind::kCompensatable, s1, ServiceId(12));
    ActivityId pp = p.AddActivity("pp", ActivityKind::kPivot, ServiceId(3));
    EXPECT_TRUE(p.AddEdge(a, b).ok());
    EXPECT_TRUE(p.AddEdge(b, pp).ok());
    qq = q.AddActivity("q", ActivityKind::kPivot, s1);
    EXPECT_TRUE(p.Validate().ok());
    EXPECT_TRUE(q.Validate().ok());
    spec.AddConflict(s1, s1);
    EXPECT_TRUE(schedule.AddProcess(kP, &p).ok());
    EXPECT_TRUE(schedule.AddProcess(kQ, &q).ok());
  }
  void Run(std::initializer_list<ScheduleEvent> events) {
    for (const ScheduleEvent& e : events) {
      ASSERT_TRUE(schedule.Append(e).ok()) << e.ToString();
    }
  }
};

// (a) The event's expansion is the tail's head: recovery compensations run
// in S in Lemma 2 order, and an abort whose completion heads the tail.
TEST(PredOracleRegression, CarriesExpansionThatIsTheTailHead) {
  for (bool abort_early : {false, true}) {
    SCOPED_TRACE(abort_early ? "abort expands both inverses" : "b^-1, a^-1");
    TwoStepWorld w;
    if (abort_early) {
      w.Run({ScheduleEvent::Activity({w.kQ, w.qq, false}),
             ScheduleEvent::Commit(w.kQ),
             ScheduleEvent::Activity({w.kP, w.a, false}),
             ScheduleEvent::Activity({w.kP, w.b, false}),
             ScheduleEvent::Abort(w.kP)});
    } else {
      w.Run({ScheduleEvent::Activity({w.kQ, w.qq, false}),
             ScheduleEvent::Commit(w.kQ),
             ScheduleEvent::Activity({w.kP, w.a, false}),
             ScheduleEvent::Activity({w.kP, w.b, false}),
             ScheduleEvent::Activity({w.kP, w.b, true}),
             ScheduleEvent::Activity({w.kP, w.a, true}),
             ScheduleEvent::Abort(w.kP)});
    }
    EXPECT_EQ(ExpectAgreement(w.schedule, w.spec, "carry (a)"), 0);
    const std::vector<size_t> trials = TrialsPerPrefix(w.schedule, w.spec);
    // Q's pivot is the only event that changes S̃'s relevant tokens.
    EXPECT_EQ(trials.back(), 1u);
    for (size_t n = 5; n < trials.size(); ++n) {
      EXPECT_EQ(trials[n], trials[n - 1]) << "event " << n;
    }
  }
}

// (b) An original whose inverse becomes the tail's new head: t t^-1 are
// adjacent in S̃ and cancel.
TEST(PredOracleRegression, CarriesOriginalWhoseInverseHeadsTheTail) {
  TwoStepWorld w;
  w.Run({ScheduleEvent::Activity({w.kQ, w.qq, false}),
         ScheduleEvent::Commit(w.kQ),
         ScheduleEvent::Activity({w.kP, w.a, false}),
         ScheduleEvent::Activity({w.kP, w.b, false})});
  EXPECT_EQ(ExpectAgreement(w.schedule, w.spec, "carry (b)"), 0);
  const std::vector<size_t> trials = TrialsPerPrefix(w.schedule, w.spec);
  EXPECT_EQ(trials, (std::vector<size_t>{0, 1, 1, 1, 1}));
}

// (c) A termination that changes no tail step: Q's commit after its only
// step, and R's commit after a step on a service nothing conflicts with.
TEST(PredOracleRegression, CarriesTerminationThatChangesNoTailStep) {
  TwoStepWorld w;
  ProcessDef r("R");
  ActivityId rr = r.AddActivity("r", ActivityKind::kCompensatable,
                                ServiceId(5), ServiceId(15));
  ASSERT_TRUE(r.Validate().ok());
  const ProcessId kR(3);
  ASSERT_TRUE(w.schedule.AddProcess(kR, &r).ok());
  w.Run({ScheduleEvent::Activity({w.kP, w.a, false}),
         ScheduleEvent::Activity({kR, rr, false}),
         ScheduleEvent::Commit(kR),
         ScheduleEvent::Activity({w.kP, w.b, false}),
         ScheduleEvent::Activity({w.kP, w.b, true}),
         ScheduleEvent::Activity({w.kP, w.a, true}),
         ScheduleEvent::Abort(w.kP),
         ScheduleEvent::Activity({w.kQ, w.qq, false}),
         ScheduleEvent::Commit(w.kQ)});
  EXPECT_EQ(ExpectAgreement(w.schedule, w.spec, "carry (c)"), 0);
  const std::vector<size_t> trials = TrialsPerPrefix(w.schedule, w.spec);
  EXPECT_EQ(trials, (std::vector<size_t>{0, 0, 0, 0, 0, 0, 0, 0, 1, 1}));
}

// A carried prefix followed at once by an irreducible one: P's a is
// carried (case b), then Q's pivot lands between a and the tail's a^-1.
TEST(PredOracleRegression, IrreduciblePrefixRightAfterACarriedEvent) {
  TwoStepWorld w;
  w.Run({ScheduleEvent::Activity({w.kP, w.a, false}),
         ScheduleEvent::Activity({w.kQ, w.qq, false})});
  EXPECT_EQ(ExpectAgreement(w.schedule, w.spec, "carried then cyclic"), 1);
  auto fast = AnalyzePRED(w.schedule, w.spec);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->violating_prefix, 2u);
  EXPECT_EQ(fast->tail_trials, 1u);
}

// Rule 3 flips at a commit: Q's effect-free x is invisible while Q runs,
// so P's u and its tail inverse cancel; Q's commit brings x back between
// them. The commit changes no tail step and appends nothing, yet S̃'s
// relevant tokens changed, so it must be tried. With x on a service that
// conflicts with nothing, the same commit is carried.
TEST(PredOracleRegression, RuleThreeFlipOnRelevantEffectFreeToken) {
  for (bool relevant : {true, false}) {
    SCOPED_TRACE(relevant ? "x conflicts with u" : "x conflicts with nothing");
    ProcessDef p("P"), q("Q");
    const ServiceId su(1), sx(2);
    ActivityId u = p.AddActivity("u", ActivityKind::kCompensatable, su,
                                 ServiceId(11));
    ActivityId pp = p.AddActivity("pp", ActivityKind::kPivot, ServiceId(4));
    ASSERT_TRUE(p.AddEdge(u, pp).ok());
    ActivityId x = q.AddActivity("x", ActivityKind::kCompensatable, sx,
                                 ServiceId(12));
    ASSERT_TRUE(p.Validate().ok());
    ASSERT_TRUE(q.Validate().ok());
    ConflictSpec spec;
    spec.AddConflict(su, su);
    if (relevant) spec.AddConflict(su, sx);
    spec.MarkEffectFree(sx);
    const ProcessId kP(1), kQ(2);
    ProcessSchedule s;
    ASSERT_TRUE(s.AddProcess(kP, &p).ok());
    ASSERT_TRUE(s.AddProcess(kQ, &q).ok());
    for (const ScheduleEvent& e : {ScheduleEvent::Activity({kP, u, false}),
                                   ScheduleEvent::Activity({kQ, x, false}),
                                   ScheduleEvent::Commit(kQ)}) {
      ASSERT_TRUE(s.Append(e).ok()) << e.ToString();
    }
    EXPECT_EQ(ExpectAgreement(s, spec, "rule-3 flip"), relevant ? 1 : 0);
    const std::vector<size_t> trials = TrialsPerPrefix(s, spec);
    EXPECT_EQ(trials[3], trials[2] + (relevant ? 1 : 0));
  }
}

// An activity whose tokens do not alternate (two originals in a row, only
// constructible with legality checks off) on a service nothing conflicts
// with: it never reaches the index, so the one pass decides the schedule
// itself instead of handing it to the reference.
TEST(PredOracleRegression, IrregularButConflictFreeActivity) {
  TwoStepWorld w;
  ProcessDef r("R");
  ActivityId rr = r.AddActivity("r", ActivityKind::kCompensatable,
                                ServiceId(5), ServiceId(15));
  ActivityId rp = r.AddActivity("rp", ActivityKind::kPivot, ServiceId(6));
  ASSERT_TRUE(r.AddEdge(rr, rp).ok());
  ASSERT_TRUE(r.Validate().ok());
  const ProcessId kR(3);
  ASSERT_TRUE(w.schedule.AddProcess(kR, &r).ok());
  for (const ScheduleEvent& e : {ScheduleEvent::Activity({w.kQ, w.qq, false}),
                                 ScheduleEvent::Activity({kR, rr, false}),
                                 ScheduleEvent::Activity({kR, rr, false}),
                                 ScheduleEvent::Activity({w.kP, w.a, false}),
                                 ScheduleEvent::Commit(w.kQ)}) {
    ASSERT_TRUE(w.schedule.Append(e, /*enforce_legal=*/false).ok())
        << e.ToString();
  }
  EXPECT_EQ(ExpectAgreement(w.schedule, w.spec, "irregular, conflict-free"),
            0);
  auto fast = AnalyzePRED(w.schedule, w.spec);
  ASSERT_TRUE(fast.ok()) << fast.status();
  EXPECT_GT(fast->tail_trials, 0u);
}

// 1,000 events, 200 processes all still active, and conflicts declared
// only outside the definitions' services: no prefix needs a tail trial.
TEST(PredOracleRegression, ConflictFreeHighActiveHistoryRunsNoTrial) {
  constexpr int kProcesses = 200;
  constexpr int kSteps = 5;
  ProcessDef def("chain");
  std::vector<ActivityId> steps;
  for (int k = 0; k < kSteps; ++k) {
    steps.push_back(def.AddActivity(StrCat("c", k),
                                    ActivityKind::kCompensatable,
                                    ServiceId(1 + k), ServiceId(101 + k)));
    if (k > 0) {
      ASSERT_TRUE(def.AddEdge(steps[k - 1], steps[k]).ok());
    }
  }
  ActivityId pivot = def.AddActivity("p", ActivityKind::kPivot, ServiceId(9));
  ASSERT_TRUE(def.AddEdge(steps.back(), pivot).ok());
  ASSERT_TRUE(def.Validate().ok());
  ConflictSpec spec;
  spec.AddConflict(ServiceId(1), ServiceId(500));  // 500 is no step's
  spec.AddConflict(ServiceId(101), ServiceId(101));  // compensations'
  spec.AddConflict(ServiceId(500), ServiceId(501));
  ProcessSchedule s;
  for (int i = 1; i <= kProcesses; ++i) {
    ASSERT_TRUE(s.AddProcess(ProcessId(i), &def).ok());
  }
  for (ActivityId step : steps) {
    for (int i = 1; i <= kProcesses; ++i) {
      ASSERT_TRUE(
          s.Append(ScheduleEvent::Activity({ProcessId(i), step, false})).ok());
    }
  }
  ASSERT_EQ(s.size(), 1000u);
  auto fast = AnalyzePRED(s, spec);
  ASSERT_TRUE(fast.ok()) << fast.status();
  EXPECT_TRUE(fast->prefix_reducible);
  EXPECT_EQ(fast->tail_trials, 0u);
}

// --- The completion memo ---

// P1 and P2 run one definition, interleaved, and reach the same state
// ({a, b} committed) from different positions, so P1's last step hits the
// memo entry P2 made. Lemma 2 still orders every inverse by its own
// process's commits: in the kept tail and in the group abort's expansion,
// P1's b^-1 (b at 3) precedes P2's b^-1 (at 2), then P2's a^-1 (at 1) and
// P1's a^-1 (at 0).
TEST(PredOracleRegression, MemoKeepsEachProcessesInversePositions) {
  ProcessDef def("P");
  const ServiceId s1(1);
  ActivityId a = def.AddActivity("a", ActivityKind::kCompensatable, s1,
                                 ServiceId(11));
  ActivityId b = def.AddActivity("b", ActivityKind::kCompensatable, s1,
                                 ServiceId(12));
  ActivityId pivot = def.AddActivity("p", ActivityKind::kPivot, ServiceId(3));
  ASSERT_TRUE(def.AddEdge(a, b).ok());
  ASSERT_TRUE(def.AddEdge(b, pivot).ok());
  ASSERT_TRUE(def.Validate().ok());
  ConflictSpec spec;
  spec.AddConflict(s1, s1);
  const ProcessId kP1(1), kP2(2);
  for (bool group_abort : {false, true}) {
    SCOPED_TRACE(group_abort ? "group abort" : "crash cut");
    ProcessSchedule s;
    ASSERT_TRUE(s.AddProcess(kP1, &def).ok());
    ASSERT_TRUE(s.AddProcess(kP2, &def).ok());
    for (const ScheduleEvent& e : {ScheduleEvent::Activity({kP1, a, false}),
                                   ScheduleEvent::Activity({kP2, a, false}),
                                   ScheduleEvent::Activity({kP2, b, false}),
                                   ScheduleEvent::Activity({kP1, b, false})}) {
      ASSERT_TRUE(s.Append(e).ok()) << e.ToString();
    }
    if (group_abort) {
      ASSERT_TRUE(s.Append(ScheduleEvent::GroupAbort({kP1, kP2})).ok());
    }
    EXPECT_TRUE(ExpectMemoMatchesRecomputation(s, "memo positions").empty());
    EXPECT_EQ(ExpectAgreement(s, spec, "memo positions"), 0);
    auto completed = CompleteSchedule(s);
    ASSERT_TRUE(completed.ok()) << completed.status();
    std::vector<ActivityInstance> tail;
    for (size_t i = 4; i < completed->size(); ++i) {
      const ScheduleEvent& e = completed->events()[i];
      if (e.type == EventType::kActivity) tail.push_back(e.act);
    }
    EXPECT_EQ(Rendered(tail),
              Rendered({{kP1, b, true}, {kP2, b, true}, {kP2, a, true},
                        {kP1, a, true}}));
  }
}

// A pivot followed by a compensatable step is not a well-formed flex
// structure: once the pivot commits, the completion's forward path reaches
// a step that is not retriable. P1 commits the pivot first and its failure
// enters the memo; P2 then reaches the same state and must fail at its own
// event, as recomputing would, while Q's steps in between do not.
TEST(PredOracleRegression, MemoReportsAnIllegalCompletionAtTheSameEvent) {
  ProcessDef bad("bad");
  ActivityId pivot = bad.AddActivity("p", ActivityKind::kPivot, ServiceId(1));
  ActivityId after = bad.AddActivity("c", ActivityKind::kCompensatable,
                                     ServiceId(2), ServiceId(12));
  ASSERT_TRUE(bad.AddEdge(pivot, after).ok());
  ASSERT_TRUE(bad.Validate().ok());
  ProcessDef good("good");
  ActivityId step = good.AddActivity("q", ActivityKind::kCompensatable,
                                     ServiceId(1), ServiceId(11));
  ASSERT_TRUE(good.Validate().ok());
  ConflictSpec spec;
  spec.AddConflict(ServiceId(1), ServiceId(1));
  const ProcessId kP1(1), kQ(2), kP2(3);
  ProcessSchedule s;
  ASSERT_TRUE(s.AddProcess(kP1, &bad).ok());
  ASSERT_TRUE(s.AddProcess(kQ, &good).ok());
  ASSERT_TRUE(s.AddProcess(kP2, &bad).ok());
  for (const ScheduleEvent& e : {ScheduleEvent::Activity({kP1, pivot, false}),
                                 ScheduleEvent::Activity({kQ, step, false}),
                                 ScheduleEvent::Commit(kQ),
                                 ScheduleEvent::Activity({kP2, pivot, false})}) {
    ASSERT_TRUE(s.Append(e).ok()) << e.ToString();
  }
  EXPECT_EQ(ExpectMemoMatchesRecomputation(s, "memoised failure"),
            (std::vector<size_t>{0, 3}));
  // The one pass stops at P1's pivot, the first prefix whose S̃ does not
  // exist, and reports the recomputed error.
  const Status expected =
      ComputeCompletion(*s.Prefix(1).StateOf(kP1)).status();
  ASSERT_FALSE(expected.ok());
  auto fast = AnalyzePRED(s, spec);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.status().ToString(), expected.ToString());
  EXPECT_FALSE(AnalyzePRED(s.Prefix(1), spec).ok());
  EXPECT_TRUE(AnalyzePRED(s.Prefix(0), spec).ok());
}

// --- Crash cuts with most processes active ---

// tpmbench's payment world in small: tenant t's reserve increments its
// `res` counter (compensated by a decrement) and its settle pivot
// increments `set`. Increments commute, so no two services of the
// definitions conflict.
class EscrowPayments {
 public:
  explicit EscrowPayments(int tenants) {
    for (int t = 0; t < tenants; ++t) {
      auto escrow = std::make_unique<EscrowSubsystem>(SubsystemId(100 + t),
                                                      StrCat("pay", t));
      const ServiceId inc_res(1000 * (t + 1) + 1);
      const ServiceId dec_res(1000 * (t + 1) + 2);
      const ServiceId inc_set(1000 * (t + 1) + 3);
      EXPECT_TRUE(escrow->CreateCounter("res", 0).ok());
      EXPECT_TRUE(escrow->CreateCounter("set", 0).ok());
      EXPECT_TRUE(escrow->RegisterIncService(inc_res, "res").ok());
      EXPECT_TRUE(escrow->RegisterDecService(dec_res, "res").ok());
      EXPECT_TRUE(escrow->RegisterIncService(inc_set, "set").ok());
      escrow_.push_back(std::move(escrow));
      services_.push_back({inc_res, dec_res, inc_set});
    }
    for (int a = 0; a < tenants; ++a) {
      for (int b = 0; b < tenants; ++b) {
        auto def = std::make_unique<ProcessDef>(StrCat("pay_", a, "_", b));
        ActivityId reserve = def->AddActivity(
            "reserve", ActivityKind::kCompensatable, services_[a][0],
            services_[a][1]);
        ActivityId settle = def->AddActivity("settle", ActivityKind::kPivot,
                                             services_[b][2]);
        EXPECT_TRUE(def->AddEdge(reserve, settle).ok());
        EXPECT_TRUE(def->Validate().ok());
        defs_.push_back(std::move(def));
      }
    }
  }
  Status Register(ShardedRuntime* runtime) {
    for (const auto& escrow : escrow_) {
      TPM_RETURN_IF_ERROR(runtime->AddSubsystem(escrow.get()));
    }
    return Status::OK();
  }
  std::map<std::string, const ProcessDef*> DefsByName() const {
    std::map<std::string, const ProcessDef*> out;
    for (const auto& def : defs_) out[def->name()] = def.get();
    return out;
  }
  const ProcessDef* Payment(int a, int b) const {
    return defs_[a * escrow_.size() + b].get();
  }
  int tenants() const { return static_cast<int>(escrow_.size()); }

 private:
  std::vector<std::unique_ptr<EscrowSubsystem>> escrow_;
  std::vector<std::vector<ServiceId>> services_;
  std::vector<std::unique_ptr<ProcessDef>> defs_;
};

// Submits every definition before the first lockstep round, stops after
// `rounds` rounds without draining (the crash), and recovers a fresh
// incarnation from the file WAL with its own verification off, so a
// disagreement reports the schedule instead of failing inside Recover.
// Returns the recovered, stopped runtime.
std::unique_ptr<ShardedRuntime> RecoverCrashCut(
    const std::function<Status(ShardedRuntime*)>& register_world,
    const std::map<std::string, const ProcessDef*>& defs_by_name,
    const std::vector<const ProcessDef*>& defs, int shards, int rounds,
    const std::string& wal_dir) {
  std::filesystem::remove_all(wal_dir);
  ShardedRuntimeOptions options;
  options.num_shards = shards;
  options.mode = TickMode::kLockstep;
  options.queue_capacity = 4096;
  options.log_mode = ShardLogMode::kFile;
  options.wal_dir = wal_dir;
  {
    ShardedRuntime runtime(options);
    EXPECT_TRUE(register_world(&runtime).ok());
    EXPECT_TRUE(runtime.Start().ok());
    for (const ProcessDef* def : defs) (void)runtime.Submit(def);
    EXPECT_TRUE(runtime.Tick(rounds).ok());
    EXPECT_TRUE(runtime.Stop().ok());
  }
  options.verify_recovery = false;
  auto recovered = std::make_unique<ShardedRuntime>(options);
  EXPECT_TRUE(register_world(recovered.get()).ok());
  EXPECT_TRUE(recovered->Start().ok());
  const Status status = recovered->Recover(defs_by_name);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_TRUE(recovered->Stop().ok());
  return recovered;
}

// Every shard history and the global projection: agreement with the
// reference, the trial bound, and Proc-REC against the rescan. In a
// conflict-free world no prefix may need a trial. Returns the events.
size_t ExpectCrashCutAgreement(ShardedRuntime* runtime, bool conflict_free,
                               const std::string& label) {
  std::vector<std::pair<ProcessSchedule, const ConflictSpec*>> histories;
  for (int shard = 0; shard < runtime->num_shards(); ++shard) {
    TransactionalProcessScheduler* scheduler = runtime->shard_scheduler(shard);
    histories.emplace_back(scheduler->history(), &scheduler->conflict_spec());
  }
  auto global = runtime->GlobalProjection();
  EXPECT_TRUE(global.ok()) << global.status();
  if (global.ok()) histories.emplace_back(*global, &runtime->union_spec());
  size_t events = 0;
  for (size_t h = 0; h < histories.size(); ++h) {
    const auto& [history, spec] = histories[h];
    const std::string where =
        StrCat(label, h < static_cast<size_t>(runtime->num_shards())
                          ? StrCat(" shard ", h)
                          : std::string(" global"));
    events += history.size();
    ExpectAgreementAndTrialBound(history, *spec, where);
    if (conflict_free) {
      auto fast = AnalyzePRED(history, *spec);
      EXPECT_TRUE(fast.ok()) << where;
      if (fast.ok()) {
        EXPECT_EQ(fast->tail_trials, 0u) << where;
      }
    }
    ExpectSameProcRec(CommittedProjection(history), *spec, where);
    ExpectSameCommittedProcRec(history, *spec, where);
    EXPECT_TRUE(ExpectMemoMatchesRecomputation(history, where).empty())
        << where;
  }
  return events;
}

TEST(PredOracleCrashCut, ConflictFreeEscrowPayments) {
  for (uint64_t k = 0; k < 2; ++k) {
    const uint64_t seed = SeedBase() * 7919 + k;
    const std::string label =
        StrCat("TPM_PRED_ORACLE_SEED_BASE=", SeedBase(), " escrow cut ", k);
    SCOPED_TRACE(label);
    EscrowPayments world(4);
    Rng rng(seed);
    std::vector<const ProcessDef*> defs;
    for (int i = 0; i < 200; ++i) {
      const int a = static_cast<int>(rng.NextBounded(4));
      const int b = rng.NextBool(0.1)
                        ? static_cast<int>(rng.NextBounded(4))
                        : a;
      defs.push_back(world.Payment(a, b));
    }
    auto recovered = RecoverCrashCut(
        [&world](ShardedRuntime* runtime) { return world.Register(runtime); },
        world.DefsByName(), defs, /*shards=*/2, /*rounds=*/3 + k,
        ::testing::TempDir() + StrCat("pred_oracle_escrow_", k));
    EXPECT_GT(ExpectCrashCutAgreement(recovered.get(), true, label), 200u);
    std::filesystem::remove_all(::testing::TempDir() +
                                StrCat("pred_oracle_escrow_", k));
  }
}

TEST(PredOracleCrashCut, OrderWorld) {
  for (uint64_t k = 0; k < 2; ++k) {
    const uint64_t seed = SeedBase() * 7919 + k;
    const std::string label =
        StrCat("TPM_PRED_ORACLE_SEED_BASE=", SeedBase(), " order cut ", k);
    SCOPED_TRACE(label);
    ShardedWorld world({.seed = seed, .num_tenants = 2});
    Rng rng(seed);
    std::vector<const ProcessDef*> defs;
    for (int i = 0; i < 60; ++i) {
      const int t = static_cast<int>(rng.NextBounded(2));
      const int variant = static_cast<int>(rng.NextBounded(3));
      const std::string name = StrCat("p", i);
      switch (rng.NextBounded(4)) {
        case 0:
          defs.push_back(world.MakeOrderProcess(t, name, variant));
          break;
        case 3:
          defs.push_back(world.MakeRefillProcess(t, name, variant));
          break;
        default:
          defs.push_back(world.MakeConsumeProcess(t, name, variant));
          break;
      }
      if (i % 15 == 14) {
        defs.push_back(world.MakeSpanningProcess(StrCat("sp", i), t, 1 - t));
      }
    }
    for (const ProcessDef* def : defs) ASSERT_NE(def, nullptr);
    auto recovered = RecoverCrashCut(
        [&world](ShardedRuntime* runtime) { return world.RegisterAll(runtime); },
        world.DefsByName(), defs, /*shards=*/2, /*rounds=*/4 + 2 * k,
        ::testing::TempDir() + StrCat("pred_oracle_orders_", k));
    EXPECT_GT(ExpectCrashCutAgreement(recovered.get(), false, label), 60u);
    std::filesystem::remove_all(::testing::TempDir() +
                                StrCat("pred_oracle_orders_", k));
  }
}


}  // namespace
}  // namespace tpm
