#include "core/execution_state.h"

#include "common/str_util.h"

namespace tpm {

Status ProcessExecutionState::RecordCommit(ActivityId a) {
  if (!def_->HasActivity(a)) {
    return Status::NotFound(StrCat("unknown activity a", a));
  }
  if (committed_.count(a) > 0 && compensated_.count(a) == 0) {
    return Status::AlreadyExists(StrCat("activity a", a, " already committed"));
  }
  // Re-execution after compensation (a new alternative attempt) is allowed:
  // clear the compensated mark and move the activity to its new commit
  // position.
  compensated_.erase(a);
  committed_.insert(a);
  std::erase(committed_order_, a);
  committed_order_.push_back(a);
  return Status::OK();
}

Status ProcessExecutionState::CheckCommitLegal(ActivityId a) const {
  for (ActivityId pred : def_->Predecessors(a)) {
    if (!IsCommitted(pred)) {
      return Status::FailedPrecondition(
          StrCat("activity a", a, " requires committed predecessor a", pred));
    }
    auto pref = def_->EdgePreference(pred, a);
    for (int g = 0; g < *pref; ++g) {
      for (ActivityId sibling : def_->SuccessorsInGroup(pred, g)) {
        for (ActivityId member : def_->Subtree(sibling)) {
          if (IsCommitted(member)) {
            return Status::FailedPrecondition(StrCat(
                "alternative a", a, " requires prior branch via a", sibling,
                " to be resolved, but a", member, " is still committed"));
          }
        }
      }
    }
  }
  return Status::OK();
}

Status ProcessExecutionState::RecordCompensation(ActivityId a) {
  if (committed_.count(a) == 0) {
    return Status::FailedPrecondition(
        StrCat("cannot compensate a", a, ": not committed"));
  }
  if (compensated_.count(a) > 0) {
    return Status::AlreadyExists(StrCat("a", a, " already compensated"));
  }
  if (!IsCompensatableKind(def_->KindOf(a))) {
    return Status::InvalidArgument(
        StrCat("a", a, " is not compensatable"));
  }
  compensated_.insert(a);
  committed_.erase(a);
  return Status::OK();
}

std::vector<ActivityId> ProcessExecutionState::EffectiveCommitted() const {
  std::vector<ActivityId> effective;
  for (ActivityId a : committed_order_) {
    if (committed_.count(a) > 0) effective.push_back(a);
  }
  return effective;
}

RecoveryState ProcessExecutionState::recovery_state() const {
  for (ActivityId a : EffectiveCommitted()) {
    if (IsNonCompensatable(def_->KindOf(a))) {
      return RecoveryState::kForwardRecoverable;
    }
  }
  return RecoveryState::kBackwardRecoverable;
}

Result<ActivityId> ProcessExecutionState::LastStateDetermining() const {
  ActivityId last;
  for (ActivityId a : EffectiveCommitted()) {
    if (IsNonCompensatable(def_->KindOf(a))) last = a;
  }
  if (!last.valid()) {
    return Status::NotFound("process is in B-REC");
  }
  return last;
}

}  // namespace tpm
