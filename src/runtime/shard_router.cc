#include "runtime/shard_router.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"
#include "core/flex_structure.h"

namespace tpm {

ShardRouter::ShardRouter(const ConflictSpec* spec,
                         const ConflictPartition* partition)
    : spec_(spec), partition_(partition) {}

int ShardRouter::ShardOfService(ServiceId service) const {
  return partition_->ShardOfService(*spec_, service);
}

Result<std::vector<int>> ShardRouter::OwnerShards(
    const ProcessDef& def) const {
  std::vector<int> owner(def.num_activities(), -1);
  for (const ActivityDecl& decl : def.activities()) {
    const int forward = ShardOfService(decl.service);
    if (forward < 0) {
      return Status::NotFound(StrCat("process '", def.name(), "', activity '",
                                     decl.name, "' (a", decl.id,
                                     ", forward): service ", decl.service,
                                     " is not registered with the runtime"));
    }
    if (decl.compensation_service.valid()) {
      const int comp = ShardOfService(decl.compensation_service);
      if (comp < 0) {
        return Status::NotFound(StrCat(
            "process '", def.name(), "', activity '", decl.name, "' (a",
            decl.id, ", compensation): service ", decl.compensation_service,
            " is not registered with the runtime"));
      }
      if (comp != forward) {
        return Status::InvalidArgument(StrCat(
            "process '", def.name(), "', activity '", decl.name, "' (a",
            decl.id, "): compensation service ", decl.compensation_service,
            " lives on shard ", comp, " but the activity executes on shard ",
            forward,
            " — a sub-process must compensate locally; colocate the "
            "compensation with its activity"));
      }
    }
    owner[static_cast<size_t>(decl.id.value()) - 1] = forward;
  }
  return owner;
}

RouterDecision ShardRouter::Decide(const ProcessDef& def) const {
  RouterDecision decision;
  Result<std::vector<int>> owners = OwnerShards(def);
  if (!owners.ok()) {
    decision.kind = RouteKind::kRejected;
    decision.error = owners.status();
    return decision;
  }
  std::set<int> distinct(owners->begin(), owners->end());
  if (distinct.size() <= 1) {
    decision.kind = RouteKind::kPinned;
    decision.shard = distinct.empty() ? 0 : *distinct.begin();
    return decision;
  }
  // Spanning: classify by actually building the plan, so kSplit is a
  // guarantee that Split() will succeed at submission (and at recovery).
  Result<SplitPlan> plan = Split(def, def.name());
  if (!plan.ok()) {
    decision.kind = RouteKind::kRejected;
    decision.error = plan.status();
    return decision;
  }
  decision.kind = RouteKind::kSplit;
  return decision;
}

Result<SplitPlan> ShardRouter::Split(const ProcessDef& def,
                                     const std::string& name_prefix) const {
  if (!def.validated()) {
    return Status::InvalidArgument("process definition missing/unvalidated");
  }
  TPM_ASSIGN_OR_RETURN(std::vector<int> owner, OwnerShards(def));
  auto owner_of = [&](ActivityId id) {
    return owner[static_cast<size_t>(id.value()) - 1];
  };

  // --- Locate the (at most one) cross-shard ◁ branch point and strip its
  // groups into tails. A branch point is cross-shard when some group
  // subtree leaves the branch point's shard; its groups must then be
  // shard-pure subtrees hanging off the branch point alone.
  ActivityId tail_branch_point;
  std::vector<std::vector<ActivityId>> tail_subtrees;  // ◁ order, topo
  std::set<int64_t> stripped;  // activity ids in any tail subtree
  for (const ActivityDecl& decl : def.activities()) {
    const auto groups = def.SuccessorGroups(decl.id);
    if (groups.size() < 2) continue;
    bool all_local = true;
    for (const auto& group : groups) {
      for (ActivityId s : def.Subtree(group)) {
        if (owner_of(s) != owner_of(decl.id)) {
          all_local = false;
          break;
        }
      }
      if (!all_local) break;
    }
    if (all_local) continue;  // the whole ◁ family stays inside one sub
    if (tail_branch_point.valid()) {
      return Status::InvalidArgument(StrCat(
          "process '", def.name(), "' has cross-shard alternatives at both a",
          tail_branch_point, " and a", decl.id,
          "; at most one cross-shard ◁ branch point is supported"));
    }
    tail_branch_point = decl.id;
    for (const auto& group : groups) {
      std::vector<ActivityId> subtree = def.Subtree(group);
      int group_shard = -1;
      for (ActivityId s : subtree) {
        if (group_shard < 0) group_shard = owner_of(s);
        if (owner_of(s) != group_shard) {
          return Status::InvalidArgument(StrCat(
              "process '", def.name(), "': the ◁ group of a", decl.id,
              " containing a", s,
              " spans shards itself; each alternative group must be "
              "shard-pure"));
        }
        if (stripped.count(s.value()) > 0) {
          return Status::InvalidArgument(StrCat(
              "process '", def.name(), "': ◁ groups of a", decl.id,
              " rejoin at a", s,
              "; alternative groups must be disjoint terminal subtrees"));
        }
        for (ActivityId p : def.Predecessors(s)) {
          const bool inside =
              p == decl.id ||
              std::find(subtree.begin(), subtree.end(), p) != subtree.end();
          if (!inside) {
            return Status::InvalidArgument(StrCat(
                "process '", def.name(), "': a", s, " of the ◁ group at a",
                decl.id, " is also reachable from a", p,
                "; alternative groups must hang off the branch point alone"));
          }
        }
      }
      for (ActivityId s : subtree) stripped.insert(s.value());
      tail_subtrees.push_back(std::move(subtree));
    }
  }

  // --- Trunk: everything outside the tails, sliced by shard. Cross-shard
  // trunk edges must be primary (preference 0) — a cross-shard alternative
  // outside the one supported branch point has no sound decomposition —
  // and the shard-quotient of the trunk must be acyclic, or the shards'
  // slices would mutually wait on each other's votes.
  std::vector<ActivityId> trunk_topo;  // global topo order, trunk only
  for (ActivityId a : def.Subtree(def.Roots())) {
    if (stripped.count(a.value()) == 0) trunk_topo.push_back(a);
  }
  std::set<int> trunk_shards;
  for (ActivityId a : trunk_topo) trunk_shards.insert(owner_of(a));
  std::map<int, std::set<int>> quotient;  // shard -> successor shards
  for (const PrecedenceEdge& edge : def.edges()) {
    if (stripped.count(edge.from.value()) > 0 ||
        stripped.count(edge.to.value()) > 0) {
      continue;
    }
    const int from_shard = owner_of(edge.from);
    const int to_shard = owner_of(edge.to);
    if (from_shard == to_shard) continue;
    if (edge.preference != 0) {
      return Status::InvalidArgument(StrCat(
          "process '", def.name(), "': alternative edge a", edge.from,
          " -> a", edge.to, " (preference ", edge.preference,
          ") crosses shards outside a supported ◁ branch point"));
    }
    quotient[from_shard].insert(to_shard);
  }
  // Kahn topological sort of the quotient, smallest shard first (ties) —
  // deterministic, so recovery regenerates the identical plan.
  std::map<int, int> indegree;
  for (int s : trunk_shards) indegree[s] = 0;
  for (const auto& [from, tos] : quotient) {
    for (int to : tos) ++indegree[to];
  }
  std::vector<int> shard_order;
  while (shard_order.size() < trunk_shards.size()) {
    int next = -1;
    for (const auto& [s, deg] : indegree) {
      if (deg == 0) {
        next = s;
        break;
      }
    }
    if (next < 0) {
      return Status::InvalidArgument(StrCat(
          "process '", def.name(),
          "' has a cyclic shard dependency: its per-shard slices would "
          "mutually wait on each other's votes; reorder the activities or "
          "colocate the services"));
    }
    shard_order.push_back(next);
    indegree.erase(next);
    auto it = quotient.find(next);
    if (it != quotient.end()) {
      for (int to : it->second) {
        auto deg = indegree.find(to);
        if (deg != indegree.end()) --deg->second;
      }
    }
  }

  // --- Materialize one sub-definition per slice (dense renumbering in the
  // original's topological order; intra-slice edges kept verbatim).
  auto materialize = [&](const std::vector<ActivityId>& members,
                         const std::string& name) -> Result<SubProcessPlan> {
    SubProcessPlan sub;
    sub.def = std::make_unique<ProcessDef>(name);
    std::map<int64_t, ActivityId> to_sub;
    for (ActivityId a : members) {
      const ActivityDecl& decl = def.activity(a);
      ActivityId sub_id = sub.def->AddActivity(
          decl.name, decl.kind, decl.service, decl.compensation_service);
      to_sub[a.value()] = sub_id;
      sub.to_original[sub_id] = a;
    }
    for (const PrecedenceEdge& edge : def.edges()) {
      auto from = to_sub.find(edge.from.value());
      auto to = to_sub.find(edge.to.value());
      if (from == to_sub.end() || to == to_sub.end()) continue;
      TPM_RETURN_IF_ERROR(
          sub.def->AddEdge(from->second, to->second, edge.preference));
    }
    TPM_RETURN_IF_ERROR(sub.def->Validate());
    Status flex = ValidateWellFormedFlex(*sub.def);
    if (!flex.ok()) {
      return Status::InvalidArgument(
          StrCat("process '", def.name(), "': per-shard slice '", name,
                 "' is not a well-formed flex structure (", flex.message(),
                 "); the decomposition is unsupported"));
    }
    return sub;
  };

  SplitPlan plan;
  plan.tail_branch_point = tail_branch_point;
  std::map<int, int> sub_index_of_shard;
  for (int shard : shard_order) {
    std::vector<ActivityId> members;
    for (ActivityId a : trunk_topo) {
      if (owner_of(a) == shard) members.push_back(a);
    }
    TPM_ASSIGN_OR_RETURN(
        SubProcessPlan sub,
        materialize(members, StrCat(name_prefix, "/s", shard)));
    sub.shard = shard;
    std::set<int> preds;
    for (const PrecedenceEdge& edge : def.edges()) {
      if (stripped.count(edge.from.value()) > 0 ||
          stripped.count(edge.to.value()) > 0) {
        continue;
      }
      if (owner_of(edge.to) == shard && owner_of(edge.from) != shard) {
        preds.insert(sub_index_of_shard.at(owner_of(edge.from)));
      }
    }
    sub.skeleton_preds.assign(preds.begin(), preds.end());
    sub_index_of_shard[shard] = static_cast<int>(plan.subs.size());
    plan.subs.push_back(std::move(sub));
  }
  for (size_t k = 0; k < tail_subtrees.size(); ++k) {
    TPM_ASSIGN_OR_RETURN(
        SubProcessPlan tail,
        materialize(tail_subtrees[k], StrCat(name_prefix, "/t", k)));
    tail.shard = owner_of(tail_subtrees[k].front());
    plan.tails.push_back(std::move(tail));
  }
  return plan;
}

}  // namespace tpm
