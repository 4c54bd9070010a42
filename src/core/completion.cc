#include "core/completion.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"

namespace tpm {

size_t Completion::num_backward_steps() const {
  size_t n = 0;
  for (const auto& step : steps) {
    if (!step.inverse) break;
    ++n;
  }
  return n;
}

std::string Completion::ToString() const {
  std::ostringstream oss;
  oss << (state == RecoveryState::kBackwardRecoverable ? "B-REC" : "F-REC")
      << " {";
  bool first = true;
  for (const auto& step : steps) {
    if (!first) oss << " << ";
    first = false;
    oss << "a" << step.activity;
    if (step.inverse) oss << "^-1";
  }
  oss << "}";
  return oss.str();
}

std::vector<ActivityId> CompensatedOnAbort(const ProcessExecutionState& state) {
  const ProcessDef& def = state.def();
  std::vector<ActivityId> effective = state.EffectiveCommitted();
  // Everything after the last non-compensatable is compensatable (every
  // kind is one or the other).
  auto last_pinned =
      std::find_if(effective.rbegin(), effective.rend(), [&](ActivityId a) {
        return IsNonCompensatable(def.KindOf(a));
      });
  effective.erase(effective.begin(), last_pinned.base());
  return effective;
}

Result<Completion> ComputeCompletion(const ProcessExecutionState& state) {
  const ProcessDef& def = state.def();
  Completion completion;
  completion.state = state.recovery_state();

  // Backward recovery: compensate, in reverse commit order (Lemma 2
  // ordering), everything an abort undoes — every effective activity in
  // B-REC, the compensatables committed after the local state-determining
  // element s_{i_k} in F-REC.
  const std::vector<ActivityId> undone = CompensatedOnAbort(state);
  for (auto it = undone.rbegin(); it != undone.rend(); ++it) {
    completion.steps.push_back({*it, /*inverse=*/true});
  }
  if (completion.state == RecoveryState::kBackwardRecoverable) {
    return completion;
  }

  // Activities whose effects are kept (the effective prefix up to s_{i_k},
  // since `undone` is its suffix): they pin the branch choices.
  const std::vector<ActivityId> effective = state.EffectiveCommitted();
  const std::set<ActivityId> kept(
      effective.begin(),
      effective.end() - static_cast<std::ptrdiff_t>(undone.size()));

  // Forward recovery path: walk forward from the kept activities. At each
  // committed activity with alternatives, stay on the branch that contains
  // kept activities; if the active branch was abandoned (all its commits
  // compensated), take the last alternative — guaranteed all-retriable by
  // the well-formed flex structure (§3.1: the abort of a process in F-REC
  // considers only the alternative with lowest priority).
  std::set<ActivityId> forward_set;
  std::vector<ActivityId> worklist(kept.begin(), kept.end());
  std::set<ActivityId> visited = kept;
  while (!worklist.empty()) {
    ActivityId c = worklist.back();
    worklist.pop_back();
    auto groups = def.SuccessorGroups(c);
    if (groups.empty()) continue;
    // Choose the group to follow.
    int chosen = -1;
    for (size_t g = 0; g < groups.size(); ++g) {
      for (ActivityId member : def.Subtree(groups[g])) {
        if (kept.count(member) > 0) {
          chosen = static_cast<int>(g);
          break;
        }
      }
      if (chosen >= 0) break;
    }
    if (chosen < 0) chosen = static_cast<int>(groups.size()) - 1;
    for (ActivityId s : groups[chosen]) {
      if (visited.count(s) > 0) continue;
      visited.insert(s);
      if (kept.count(s) == 0) {
        if (!IsRetriableKind(def.KindOf(s))) {
          return Status::Internal(
              StrCat("forward recovery path reached non-retriable activity a",
                     s, "; process lacks guaranteed termination"));
        }
        forward_set.insert(s);
      }
      worklist.push_back(s);
    }
  }

  // Emit forward steps in topological (precedence) order.
  auto topo_order = def.Subtree(def.Roots());
  for (ActivityId a : topo_order) {
    if (forward_set.count(a) > 0) {
      completion.steps.push_back({a, /*inverse=*/false});
    }
  }
  return completion;
}

}  // namespace tpm
