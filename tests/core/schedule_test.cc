#include "core/schedule.h"

#include <gtest/gtest.h>

#include "core/figures.h"

namespace tpm {
namespace {

using figures::kP1;
using figures::kP2;

class ScheduleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(s_.AddProcess(kP1, &world_.p1).ok());
    ASSERT_TRUE(s_.AddProcess(kP2, &world_.p2).ok());
  }

  Status Act(ProcessId pid, int64_t act, bool inverse = false) {
    return s_.Append(ScheduleEvent::Activity(
        ActivityInstance{pid, ActivityId(act), inverse}));
  }

  figures::PaperWorld world_;
  ProcessSchedule s_;
};

TEST_F(ScheduleTest, DuplicateProcessRejected) {
  EXPECT_EQ(s_.AddProcess(kP1, &world_.p1).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ScheduleTest, AppendRespectsPrecedence) {
  // a12 before a11 violates a11 << a12.
  EXPECT_TRUE(Act(kP1, 2).IsFailedPrecondition());
  EXPECT_TRUE(Act(kP1, 1).ok());
  EXPECT_TRUE(Act(kP1, 2).ok());
}

TEST_F(ScheduleTest, AlternativeRequiresPriorBranchResolved) {
  ASSERT_TRUE(Act(kP1, 1).ok());
  ASSERT_TRUE(Act(kP1, 2).ok());
  ASSERT_TRUE(Act(kP1, 3).ok());
  // a15 is the alternative of a13; a13 is still committed.
  EXPECT_TRUE(Act(kP1, 5).IsFailedPrecondition());
  ASSERT_TRUE(Act(kP1, 3, /*inverse=*/true).ok());
  EXPECT_TRUE(Act(kP1, 5).ok());
}

TEST_F(ScheduleTest, AbortedInvocationLeavesNoTrace) {
  ASSERT_TRUE(s_.Append(ScheduleEvent::Activity(
                            ActivityInstance{kP1, ActivityId(1), false},
                            /*aborted_invocation=*/true))
                  .ok());
  EXPECT_FALSE(s_.StateOf(kP1)->IsCommitted(ActivityId(1)));
  EXPECT_EQ(s_.size(), 1u);
}

TEST_F(ScheduleTest, TerminalEventsUniquePerProcess) {
  ASSERT_TRUE(s_.Append(ScheduleEvent::Commit(kP1)).ok());
  EXPECT_TRUE(s_.Append(ScheduleEvent::Commit(kP1)).IsFailedPrecondition());
  EXPECT_TRUE(Act(kP1, 1).IsFailedPrecondition());
}

TEST_F(ScheduleTest, GroupAbortMarksAllAborted) {
  ASSERT_TRUE(s_.Append(ScheduleEvent::GroupAbort({kP1, kP2})).ok());
  EXPECT_EQ(s_.StateOf(kP1)->outcome(), ProcessOutcome::kAborted);
  EXPECT_EQ(s_.StateOf(kP2)->outcome(), ProcessOutcome::kAborted);
  EXPECT_TRUE(s_.ActiveProcesses().empty());
}

TEST_F(ScheduleTest, ActiveProcesses) {
  EXPECT_EQ(s_.ActiveProcesses().size(), 2u);
  ASSERT_TRUE(s_.Append(ScheduleEvent::Commit(kP1)).ok());
  EXPECT_EQ(s_.ActiveProcesses(), std::vector<ProcessId>{kP2});
  EXPECT_TRUE(s_.IsProcessCommitted(kP1));
  EXPECT_FALSE(s_.IsProcessCommitted(kP2));
}

TEST_F(ScheduleTest, PrefixReplaysState) {
  ASSERT_TRUE(Act(kP1, 1).ok());
  ASSERT_TRUE(Act(kP2, 1).ok());
  ASSERT_TRUE(Act(kP1, 2).ok());
  ProcessSchedule prefix = s_.Prefix(2);
  EXPECT_EQ(prefix.size(), 2u);
  EXPECT_TRUE(prefix.StateOf(kP1)->IsCommitted(ActivityId(1)));
  EXPECT_FALSE(prefix.StateOf(kP1)->IsCommitted(ActivityId(2)));
  EXPECT_TRUE(prefix.StateOf(kP2)->IsCommitted(ActivityId(1)));
}

TEST_F(ScheduleTest, InstancesConflictUsesSpecAndPerfectCommutativity) {
  ActivityInstance a11{kP1, ActivityId(1), false};
  ActivityInstance a11_inv{kP1, ActivityId(1), true};
  ActivityInstance a21{kP2, ActivityId(1), false};
  ActivityInstance a22{kP2, ActivityId(2), false};
  EXPECT_TRUE(s_.InstancesConflict(a11, a21, world_.spec));
  // Perfect commutativity: the inverse conflicts exactly like the original.
  EXPECT_TRUE(s_.InstancesConflict(a11_inv, a21, world_.spec));
  EXPECT_FALSE(s_.InstancesConflict(a11, a22, world_.spec));
  // Same-process instances never "conflict" (program order rules them).
  EXPECT_FALSE(s_.InstancesConflict(a11, a11_inv, world_.spec));
}

TEST_F(ScheduleTest, ToStringRendersEvents) {
  ASSERT_TRUE(Act(kP1, 1).ok());
  ASSERT_TRUE(s_.Append(ScheduleEvent::Commit(kP1)).ok());
  EXPECT_EQ(s_.ToString(), "<a1_1 C1>");
  ScheduleEvent ga = ScheduleEvent::GroupAbort({kP1, kP2});
  EXPECT_EQ(ga.ToString(), "A(P1,P2)");
}

TEST_F(ScheduleTest, UnknownProcessRejected) {
  EXPECT_TRUE(Act(ProcessId(42), 1).IsNotFound());
}

// A copy owns its execution states: events appended to the copy leave the
// original's process states as they were.
TEST(ProcessScheduleTest, CopyDoesNotShareExecutionState) {
  figures::PaperWorld world;
  ProcessSchedule original;
  ASSERT_TRUE(original.AddProcess(kP1, &world.p1).ok());
  ProcessSchedule copy = original;
  ASSERT_TRUE(copy.Append(ScheduleEvent::Activity(
                              ActivityInstance{kP1, ActivityId(1), false}))
                  .ok());
  ASSERT_TRUE(copy.Append(ScheduleEvent::Commit(kP1)).ok());

  EXPECT_EQ(original.size(), 0u);
  const ProcessExecutionState* state = original.StateOf(kP1);
  ASSERT_NE(state, nullptr);
  EXPECT_FALSE(state->IsCommitted(ActivityId(1)));
  EXPECT_TRUE(state->IsActive());
  EXPECT_TRUE(original.Append(ScheduleEvent::Commit(kP1)).ok());
  EXPECT_TRUE(copy.IsProcessCommitted(kP1));
  EXPECT_TRUE(copy.StateOf(kP1)->IsCommitted(ActivityId(1)));
}

}  // namespace
}  // namespace tpm
