#include "core/scheduler.h"

#include <gtest/gtest.h>

#include "core/pred.h"
#include "core/recoverability.h"
#include "core/serializability.h"
#include "testing/mini_world.h"
#include "workload/dsl_binding.h"

namespace tpm {
namespace {

using testing::MiniWorld;

SchedulerOptions PredCertified() {
  SchedulerOptions options;
  options.protocol = AdmissionProtocol::kPred;
  options.certify_prefixes = true;
  return options;
}

TEST(SchedulerTest, SingleProcessHappyPath) {
  MiniWorld world;
  const ProcessDef* def = world.MakeChain("p", "c:a p:b r:c");
  ASSERT_NE(def, nullptr);
  TransactionalProcessScheduler scheduler(PredCertified());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto pid = scheduler.Submit(def);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.OutcomeOf(*pid), ProcessOutcome::kCommitted);
  EXPECT_EQ(world.Value("a"), 1);
  EXPECT_EQ(world.Value("b"), 1);
  EXPECT_EQ(world.Value("c"), 1);
  EXPECT_EQ(scheduler.stats().activities_committed, 3);
  EXPECT_EQ(scheduler.stats().processes_committed, 1);
  // The emitted history ends with the process commit.
  const auto& events = scheduler.history().events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().type, EventType::kCommit);
}

TEST(SchedulerTest, SubmitValidatesDefinition) {
  MiniWorld world;
  TransactionalProcessScheduler scheduler;
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  // Null / unvalidated.
  EXPECT_TRUE(scheduler.Submit(nullptr).status().IsInvalidArgument());
  // Unregistered service.
  ProcessDef foreign("foreign");
  foreign.AddActivity("x", ActivityKind::kPivot, ServiceId(424242));
  ASSERT_TRUE(foreign.Validate().ok());
  EXPECT_TRUE(scheduler.Submit(&foreign).status().IsNotFound());
  // Not well-formed flex (pivot after retriable).
  ProcessDef bad("bad");
  ActivityId r = bad.AddActivity("r", ActivityKind::kRetriable,
                                 world.AddServiceFor("a"));
  ActivityId p = bad.AddActivity("p", ActivityKind::kPivot,
                                 world.AddServiceFor("b"));
  ASSERT_TRUE(bad.AddEdge(r, p).ok());
  ASSERT_TRUE(bad.Validate().ok());
  EXPECT_FALSE(scheduler.Submit(&bad).ok());
}

TEST(SchedulerTest, RetriableRetriesUntilCommit) {
  MiniWorld world;
  const ProcessDef* def = world.MakeChain("p", "p:a r:b");
  ASSERT_NE(def, nullptr);
  world.subsystem()->ScheduleFailures(world.AddServiceFor("b"), 3);
  TransactionalProcessScheduler scheduler(PredCertified());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto pid = scheduler.Submit(def);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.OutcomeOf(*pid), ProcessOutcome::kCommitted);
  EXPECT_EQ(scheduler.stats().failed_invocations, 3);
  EXPECT_EQ(world.Value("b"), 1);
  // The failed invocations appear as effect-free events in the history.
  int aborted_events = 0;
  for (const auto& e : scheduler.history().events()) {
    if (e.type == EventType::kActivity && e.aborted_invocation) {
      ++aborted_events;
    }
  }
  EXPECT_EQ(aborted_events, 3);
}

TEST(SchedulerTest, PivotFailureTriggersBackwardRecovery) {
  MiniWorld world;
  const ProcessDef* def = world.MakeChain("p", "c:a c:b p:x r:c");
  ASSERT_NE(def, nullptr);
  world.subsystem()->ScheduleFailures(world.AddServiceFor("x"), 1);
  TransactionalProcessScheduler scheduler(PredCertified());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto pid = scheduler.Submit(def);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.OutcomeOf(*pid), ProcessOutcome::kAborted);
  // Backward recovery: everything compensated, the store is clean.
  EXPECT_EQ(world.Value("a"), 0);
  EXPECT_EQ(world.Value("b"), 0);
  EXPECT_EQ(world.Value("x"), 0);
  EXPECT_EQ(world.Value("c"), 0);
  EXPECT_EQ(scheduler.stats().compensations, 2);
  EXPECT_EQ(scheduler.stats().processes_aborted, 1);
}

TEST(SchedulerTest, NestedPivotFailureTakesAlternative) {
  MiniWorld world;
  const ProcessDef* def =
      world.MakeBranching("p", "pre", "piv", "mid", "deep", "alt");
  ASSERT_NE(def, nullptr);
  world.subsystem()->ScheduleFailures(world.AddServiceFor("deep"), 1);
  TransactionalProcessScheduler scheduler(PredCertified());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto pid = scheduler.Submit(def);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  // The process still commits: mid was compensated, the alternative ran.
  EXPECT_EQ(scheduler.OutcomeOf(*pid), ProcessOutcome::kCommitted);
  EXPECT_EQ(world.Value("pre"), 1);
  EXPECT_EQ(world.Value("piv"), 1);
  EXPECT_EQ(world.Value("mid"), 0);   // compensated
  EXPECT_EQ(world.Value("deep"), 0);  // failed
  EXPECT_EQ(world.Value("alt"), 1);   // alternative executed
  EXPECT_EQ(scheduler.stats().alternatives_taken, 1);
  EXPECT_EQ(scheduler.stats().compensations, 1);
}

TEST(SchedulerTest, ConflictingPivotDeferredUntilBlockerCommits) {
  MiniWorld world;
  // P1 touches shared key "s" early and is slow; P2's pivot touches "s".
  const ProcessDef* p1 = world.MakeChain("p1", "c:s c:x1 c:x2 p:y1 r:z1");
  const ProcessDef* p2 = world.MakeChain("p2", "c:w p:s r:z2");
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  TransactionalProcessScheduler scheduler(PredCertified());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto pid1 = scheduler.Submit(p1);
  auto pid2 = scheduler.Submit(p2);
  ASSERT_TRUE(pid1.ok());
  ASSERT_TRUE(pid2.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.OutcomeOf(*pid1), ProcessOutcome::kCommitted);
  EXPECT_EQ(scheduler.OutcomeOf(*pid2), ProcessOutcome::kCommitted);
  EXPECT_GT(scheduler.stats().deferrals, 0);

  // In the emitted history P2's pivot (activity 2, service add/s) appears
  // after C1 (Lemma 1).
  const auto& events = scheduler.history().events();
  size_t c1_pos = SIZE_MAX, p2_pivot_pos = SIZE_MAX;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].type == EventType::kCommit && events[i].process == *pid1) {
      c1_pos = i;
    }
    if (events[i].type == EventType::kActivity &&
        events[i].act.process == *pid2 &&
        events[i].act.activity == ActivityId(2) &&
        !events[i].aborted_invocation) {
      p2_pivot_pos = i;
    }
  }
  ASSERT_NE(c1_pos, SIZE_MAX);
  ASSERT_NE(p2_pivot_pos, SIZE_MAX);
  EXPECT_LT(c1_pos, p2_pivot_pos);

  // And the final history is PRED.
  auto pred = IsPRED(scheduler.history(), scheduler.conflict_spec());
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(*pred);
}

TEST(SchedulerTest, Prepared2PCOverlapsExecution) {
  MiniWorld world;
  const ProcessDef* p1 = world.MakeChain("p1", "c:s c:x1 c:x2 p:y1 r:z1");
  const ProcessDef* p2 = world.MakeChain("p2", "c:w p:u r:z2");
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  SchedulerOptions options;
  options.protocol = AdmissionProtocol::kPred;
  options.defer_mode = DeferMode::kPrepared2PC;
  options.certify_prefixes = true;
  TransactionalProcessScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  // Make P2's pivot conflict with P1 via the shared key "s": rebuild p2
  // with pivot on s.
  const ProcessDef* p2s = world.MakeChain("p2s", "c:w p:s r:z2");
  ASSERT_NE(p2s, nullptr);
  (void)p2;
  auto pid1 = scheduler.Submit(p1);
  auto pid2 = scheduler.Submit(p2s);
  ASSERT_TRUE(pid1.ok());
  ASSERT_TRUE(pid2.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.OutcomeOf(*pid1), ProcessOutcome::kCommitted);
  EXPECT_EQ(scheduler.OutcomeOf(*pid2), ProcessOutcome::kCommitted);
  EXPECT_GT(scheduler.stats().prepared_branches, 0);
  EXPECT_EQ(world.Value("s"), 2);  // both adds landed
  auto pred = IsPRED(scheduler.history(), scheduler.conflict_spec());
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(*pred);
}

TEST(SchedulerTest, CompensationCascadesToDependentProcess) {
  MiniWorld world;
  // P1 writes "s" then fails its pivot -> aborts, compensating "s".
  const ProcessDef* p1 = world.MakeChain("p1", "c:s c:f1 c:f2 p:boom");
  // P2 consumes "s" (conflicting compensatable) then more local work.
  const ProcessDef* p2 = world.MakeChain("p2", "c:s c:m p:n");
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  world.subsystem()->ScheduleFailures(world.AddServiceFor("boom"), 1);
  TransactionalProcessScheduler scheduler(PredCertified());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto pid1 = scheduler.Submit(p1);
  auto pid2 = scheduler.Submit(p2);
  ASSERT_TRUE(pid1.ok());
  ASSERT_TRUE(pid2.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  EXPECT_EQ(scheduler.OutcomeOf(*pid1), ProcessOutcome::kAborted);
  EXPECT_EQ(scheduler.OutcomeOf(*pid2), ProcessOutcome::kAborted);
  EXPECT_GE(scheduler.stats().cascading_aborts, 1);
  EXPECT_EQ(scheduler.stats().irrecoverable_cascades, 0);
  // Everything rolled back.
  EXPECT_EQ(world.Value("s"), 0);
  EXPECT_EQ(world.Value("m"), 0);
  EXPECT_EQ(world.Value("n"), 0);
}

TEST(SchedulerTest, DeadlockResolvedByVictimAbort) {
  MiniWorld world;
  const ProcessDef* p1 = world.MakeChain("p1", "c:k1 p:k2 r:z1");
  const ProcessDef* p2 = world.MakeChain("p2", "c:k2 p:k1 r:z2");
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  SchedulerOptions options;
  options.protocol = AdmissionProtocol::kPred;
  TransactionalProcessScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto pid1 = scheduler.Submit(p1);
  auto pid2 = scheduler.Submit(p2);
  ASSERT_TRUE(pid1.ok());
  ASSERT_TRUE(pid2.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  // One process must have been sacrificed; at least one commits.
  int committed = (scheduler.OutcomeOf(*pid1) == ProcessOutcome::kCommitted) +
                  (scheduler.OutcomeOf(*pid2) == ProcessOutcome::kCommitted);
  int aborted = (scheduler.OutcomeOf(*pid1) == ProcessOutcome::kAborted) +
                (scheduler.OutcomeOf(*pid2) == ProcessOutcome::kAborted);
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(aborted, 1);
  EXPECT_GE(scheduler.stats().deadlock_victims, 1);
  auto pred = IsPRED(scheduler.history(), scheduler.conflict_spec());
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(*pred);
}

TEST(SchedulerTest, CommitOrderFollowsConflictOrder) {
  MiniWorld world;
  // P1 touches "s" first but is long; P2 touches "s" second (compensatable)
  // and finishes early — it must still commit after P1 (Def. 11 clause 1).
  const ProcessDef* p1 = world.MakeChain("p1", "c:s c:x1 c:x2 c:x3 p:y1");
  const ProcessDef* p2 = world.MakeChain("p2", "c:s");
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  TransactionalProcessScheduler scheduler(PredCertified());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto pid1 = scheduler.Submit(p1);
  auto pid2 = scheduler.Submit(p2);
  ASSERT_TRUE(pid1.ok());
  ASSERT_TRUE(pid2.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  size_t c1 = SIZE_MAX, c2 = SIZE_MAX;
  const auto& events = scheduler.history().events();
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].type != EventType::kCommit) continue;
    if (events[i].process == *pid1) c1 = i;
    if (events[i].process == *pid2) c2 = i;
  }
  ASSERT_NE(c1, SIZE_MAX);
  ASSERT_NE(c2, SIZE_MAX);
  EXPECT_LT(c1, c2);
  EXPECT_GT(scheduler.stats().commit_waits, 0);
}

TEST(SchedulerTest, ManyIndependentProcessesAllCommit) {
  MiniWorld world;
  // All definitions (and hence services) must exist before the subsystem is
  // registered, because conflicts are derived at registration time.
  std::vector<const ProcessDef*> defs;
  for (int i = 0; i < 8; ++i) {
    const ProcessDef* def = world.MakeChain(
        StrCat("p", i), StrCat("c:a", i, " p:b", i, " r:c", i));
    ASSERT_NE(def, nullptr);
    defs.push_back(def);
  }
  TransactionalProcessScheduler scheduler(PredCertified());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  std::vector<ProcessId> pids;
  for (const ProcessDef* def : defs) {
    auto pid = scheduler.Submit(def);
    ASSERT_TRUE(pid.ok());
    pids.push_back(*pid);
  }
  ASSERT_TRUE(scheduler.Run().ok());
  for (ProcessId pid : pids) {
    EXPECT_EQ(scheduler.OutcomeOf(pid), ProcessOutcome::kCommitted);
  }
  EXPECT_EQ(scheduler.stats().deferrals, 0);  // no conflicts, no waits
}

TEST(SchedulerTest, UnsafeProtocolProducesViolationsUnderConflicts) {
  MiniWorld world;
  // P1 writes s, then long prefix, then fails its pivot -> compensates s.
  const ProcessDef* p1 = world.MakeChain("p1", "c:s c:f1 c:f2 c:f3 p:boom");
  // P2 consumes s and rushes to its own pivot.
  const ProcessDef* p2 = world.MakeChain("p2", "c:s p:n r:m");
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  world.subsystem()->ScheduleFailures(world.AddServiceFor("boom"), 1);
  SchedulerOptions options;
  options.protocol = AdmissionProtocol::kUnsafe;
  options.certify_prefixes = true;
  TransactionalProcessScheduler scheduler(options);
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto pid1 = scheduler.Submit(p1);
  auto pid2 = scheduler.Submit(p2);
  ASSERT_TRUE(pid1.ok());
  ASSERT_TRUE(pid2.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  // The unsafe protocol let P2's pivot commit before P1 resolved; P1's
  // compensation of s then doomed P2 irrecoverably.
  EXPECT_GT(scheduler.stats().certified_violations +
                scheduler.stats().irrecoverable_cascades,
            0);
}

TEST(SchedulerTest, QuasiCommitOptimizationAdmitsEarlier) {
  MiniWorld world;
  // P1: pivot first (enters F-REC immediately), then retriables that do
  // not touch "s". P2 conflicts with P1's pivot service "s".
  const ProcessDef* p1 = world.MakeChain("p1", "p:s r:x1 r:x2 r:x3");
  const ProcessDef* p2 = world.MakeChain("p2", "c:s p:y r:z");
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);

  auto run = [&](bool quasi) {
    MiniWorld w2;
    const ProcessDef* q1 = w2.MakeChain("p1", "p:s r:x1 r:x2 r:x3");
    const ProcessDef* q2 = w2.MakeChain("p2", "c:s p:y r:z");
    SchedulerOptions options;
    options.protocol = AdmissionProtocol::kPred;
    options.quasi_commit_optimization = quasi;
    TransactionalProcessScheduler scheduler(options);
    EXPECT_TRUE(scheduler.RegisterSubsystem(w2.subsystem()).ok());
    auto pid1 = scheduler.Submit(q1);
    auto pid2 = scheduler.Submit(q2);
    EXPECT_TRUE(pid1.ok());
    EXPECT_TRUE(pid2.ok());
    EXPECT_TRUE(scheduler.Run().ok());
    EXPECT_EQ(scheduler.OutcomeOf(*pid1), ProcessOutcome::kCommitted);
    EXPECT_EQ(scheduler.OutcomeOf(*pid2), ProcessOutcome::kCommitted);
    return scheduler.stats();
  };

  SchedulerStats without = run(false);
  SchedulerStats with = run(true);
  // The optimization strictly reduces deferral pressure.
  EXPECT_LE(with.deferrals, without.deferrals);
  EXPECT_LE(with.steps, without.steps);
  (void)p1;
  (void)p2;
}

// Footnote 2: a compensatable-retriable effect is undone by an abort like
// any compensatable one, so Lemma 3's forward-step wait must see it.
// C's pivot fails, and C's compensation cascade-aborts A, which is in F-REC.
// A's forward completion step s (svc 12) then meets B's compensatable-
// retriable b (svc 31, which conflicts with 12). Once A finishes, B's pivot q
// fails and B compensates b. Had s run between b and b^-1, that pair could no
// longer cancel (b << s << b^-1 is a cycle). A must wait for B instead.
constexpr char kForwardStepMeetsCompensatableRetriable[] = R"(
process C
  activity k c service=21 comp=121
  activity f p service=22
  edge k f
end
process A
  activity x p service=10
  activity m c service=11 comp=111
  activity s r service=12
  edge x m
  edge x s alt=1
end
process B
  activity b cr service=31 comp=131
  activity w1 c service=33 comp=133
  activity w2 c service=34 comp=134
  activity w3 c service=35 comp=135
  activity q p service=32
  edge b w1
  edge w1 w2
  edge w2 w3
  edge w3 q
end
conflict 11 21
conflict 12 31
)";

TEST(SchedulerTest, ForwardCompletionStepWaitsForCompensatableRetriable) {
  auto world = ParseWorld(kForwardStepMeetsCompensatableRetriable);
  ASSERT_TRUE(world.ok()) << world.status();
  auto bound = BoundWorld::Bind(world->get());
  ASSERT_TRUE(bound.ok()) << bound.status();
  ASSERT_TRUE((*bound)->InjectFailure("C", "f").ok());
  ASSERT_TRUE((*bound)->InjectFailure("B", "q").ok());
  TransactionalProcessScheduler scheduler;
  ASSERT_TRUE((*bound)->Attach(&scheduler).ok());
  auto pids = (*bound)->SubmitAll(&scheduler);
  ASSERT_TRUE(pids.ok());
  ASSERT_TRUE(scheduler.Run().ok());
  for (const char* name : {"A", "B", "C"}) {
    EXPECT_EQ(scheduler.OutcomeOf(pids->at(name)), ProcessOutcome::kAborted)
        << name;
  }
  EXPECT_GE(scheduler.stats().cascading_aborts, 1);
  EXPECT_EQ((*bound)->ValueOf(ServiceId(12)), 1);  // A's forward step ran
  auto pred = IsPRED(scheduler.history(), scheduler.conflict_spec());
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(*pred) << scheduler.history().ToString();
}

TEST(SchedulerTest, RecoveryAroundCompensatableRetriableKeepsPredProcRec) {
  // Crash after every pass of the scenario above; the recovered history
  // must stay PRED and Proc-REC.
  for (int crash_at = 1;; ++crash_at) {
    auto world = ParseWorld(kForwardStepMeetsCompensatableRetriable);
    ASSERT_TRUE(world.ok());
    auto bound = BoundWorld::Bind(world->get());
    ASSERT_TRUE(bound.ok());
    ASSERT_TRUE((*bound)->InjectFailure("C", "f").ok());
    ASSERT_TRUE((*bound)->InjectFailure("B", "q").ok());
    RecoveryLog log;
    TransactionalProcessScheduler scheduler({}, &log);
    ASSERT_TRUE((*bound)->Attach(&scheduler).ok());
    ASSERT_TRUE((*bound)->SubmitAll(&scheduler).ok());
    bool more = true;
    for (int step = 0; more && step < crash_at; ++step) {
      auto result = scheduler.Step();
      ASSERT_TRUE(result.ok()) << result.status();
      more = *result;
    }
    if (!more) break;  // the run finished before the crash point
    scheduler.Crash();
    ASSERT_TRUE(scheduler.Recover((*world)->def_by_name).ok())
        << "crash_at=" << crash_at;
    auto pred = IsPRED(scheduler.history(), scheduler.conflict_spec());
    ASSERT_TRUE(pred.ok());
    EXPECT_TRUE(*pred) << "crash_at=" << crash_at << " "
                       << scheduler.history().ToString();
    EXPECT_TRUE(IsProcessRecoverable(scheduler.history(),
                                     scheduler.conflict_spec()))
        << "crash_at=" << crash_at << " " << scheduler.history().ToString();
  }
}

}  // namespace
}  // namespace tpm
