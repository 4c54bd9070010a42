// Admission through Scheduler::Submit and SubmitHeld, the only two entry
// points: a run of submissions keeps per-submission outcomes, a rejected
// submission consumes no pid, and every admitted process is a
// serialization-graph node before any conflict edge names it.

#include <vector>

#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "testing/mini_world.h"

namespace tpm {
namespace {

using testing::MiniWorld;

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
  std::vector<Result<ProcessId>> results;
  results.push_back(scheduler.Submit(first, 1));
  results.push_back(scheduler.Submit(nullptr, 2));
  results.push_back(scheduler.Submit(&foreign, 3));
  results.push_back(scheduler.Submit(second, 4));
  // Invalid submissions get their own errors, and a rejection consumes no
  // pid: the valid submissions take consecutive pids.
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

TEST(SchedulerBatch, EveryAdmissionPathInternsAGraphNode) {
  // Submit and SubmitHeld share one admission step, so each leaves the
  // same graph state: an admitted process is a serialization graph node
  // before any conflict edge names it.
  MiniWorld world;
  const ProcessDef* d1 = world.MakeChain("n1", "c:a p:b");
  const ProcessDef* d2 = world.MakeChain("n2", "c:x p:y");
  ASSERT_NE(d2, nullptr);
  TransactionalProcessScheduler scheduler(PredOptions());
  ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
  auto solo = scheduler.Submit(d1);
  ASSERT_TRUE(solo.ok());
  EXPECT_TRUE(scheduler.InSerializationGraph(*solo));
  auto held = scheduler.SubmitHeld(d2);
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(scheduler.InSerializationGraph(*held));
}

}  // namespace
}  // namespace tpm
