#include "core/process.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/str_util.h"

namespace tpm {

ProcessDef::ProcessDef(std::string name) : name_(std::move(name)) {}

ActivityId ProcessDef::AddActivity(std::string name, ActivityKind kind,
                                   ServiceId service,
                                   ServiceId compensation_service) {
  ActivityId id(static_cast<int64_t>(activities_.size()) + 1);
  activities_.push_back(ActivityDecl{id, std::move(name), kind, service,
                                     compensation_service});
  validated_ = false;
  return id;
}

Status ProcessDef::AddEdge(ActivityId from, ActivityId to, int preference) {
  if (!HasActivity(from) || !HasActivity(to)) {
    return Status::InvalidArgument(
        StrCat("edge references unknown activity: ", from, " -> ", to));
  }
  if (from == to) {
    return Status::InvalidArgument("precedence order is irreflexive");
  }
  if (preference < 0) {
    return Status::InvalidArgument("preference must be non-negative");
  }
  for (const auto& e : edges_) {
    if (e.from == from && e.to == to) {
      return Status::AlreadyExists(
          StrCat("duplicate edge ", from, " -> ", to));
    }
  }
  edges_.push_back(PrecedenceEdge{from, to, preference});
  validated_ = false;
  return Status::OK();
}

Status ProcessDef::Validate() {
  if (activities_.empty()) {
    return Status::InvalidArgument("process has no activities");
  }
  for (const auto& a : activities_) {
    const bool comp = IsCompensatableKind(a.kind);
    if (comp && !a.compensation_service.valid()) {
      return Status::InvalidArgument(StrCat(
          "compensatable activity ", a.name, " lacks a compensation service"));
    }
    if (!comp && a.compensation_service.valid()) {
      return Status::InvalidArgument(
          StrCat("non-compensatable activity ", a.name,
                 " must not declare a compensation service"));
    }
  }
  // Precedence must be acyclic (Def. 5: << is irreflexive, transitive,
  // acyclic).
  Result<Order> order = ComputeOrder();
  if (!order.ok()) {
    return Status::InvalidArgument("precedence order contains a cycle");
  }
  // Preference groups per source must be contiguous 0..k so the total order
  // on connectors (◁) is well defined.
  std::map<ActivityId, std::set<int>> prefs;
  for (const auto& e : edges_) prefs[e.from].insert(e.preference);
  for (const auto& [src, groups] : prefs) {
    int expected = 0;
    for (int p : groups) {
      if (p != expected) {
        return Status::InvalidArgument(
            StrCat("preference groups of activity ", src,
                   " are not contiguous from 0"));
      }
      ++expected;
    }
  }
  order_ = std::move(order).value();
  validated_ = true;
  return Status::OK();
}

bool ProcessDef::HasActivity(ActivityId id) const {
  return id.valid() && id.value() >= 1 &&
         id.value() <= static_cast<int64_t>(activities_.size());
}

const ActivityDecl& ProcessDef::activity(ActivityId id) const {
  return activities_[IndexOf(id)];
}

std::vector<ActivityId> ProcessDef::Predecessors(ActivityId id) const {
  std::vector<ActivityId> preds;
  for (const auto& e : edges_) {
    if (e.to == id) preds.push_back(e.from);
  }
  return preds;
}

std::vector<std::vector<ActivityId>> ProcessDef::SuccessorGroups(
    ActivityId id) const {
  std::map<int, std::vector<ActivityId>> by_pref;
  for (const auto& e : edges_) {
    if (e.from == id) by_pref[e.preference].push_back(e.to);
  }
  std::vector<std::vector<ActivityId>> groups;
  for (auto& [pref, members] : by_pref) {
    groups.push_back(std::move(members));
  }
  return groups;
}

std::vector<ActivityId> ProcessDef::SuccessorsInGroup(ActivityId id,
                                                      int preference) const {
  std::vector<ActivityId> result;
  for (const auto& e : edges_) {
    if (e.from == id && e.preference == preference) result.push_back(e.to);
  }
  return result;
}

Result<int> ProcessDef::EdgePreference(ActivityId from, ActivityId to) const {
  for (const auto& e : edges_) {
    if (e.from == from && e.to == to) return e.preference;
  }
  return Status::NotFound(StrCat("no edge ", from, " -> ", to));
}

std::vector<ActivityId> ProcessDef::Roots() const {
  std::vector<bool> has_pred(activities_.size(), false);
  for (const auto& e : edges_) has_pred[IndexOf(e.to)] = true;
  std::vector<ActivityId> roots;
  for (size_t i = 0; i < activities_.size(); ++i) {
    if (!has_pred[i]) roots.push_back(IdOf(static_cast<int>(i)));
  }
  return roots;
}

Dag ProcessDef::BuildDag() const {
  Dag dag(static_cast<int>(activities_.size()));
  for (const auto& e : edges_) dag.AddEdge(IndexOf(e.from), IndexOf(e.to));
  return dag;
}

std::vector<ActivityId> ProcessDef::Subtree(ActivityId start) const {
  return Subtree(std::vector<ActivityId>{start});
}

Result<ProcessDef::Order> ProcessDef::ComputeOrder() const {
  TPM_ASSIGN_OR_RETURN(std::vector<int> topo, BuildDag().TopologicalOrder());
  std::vector<size_t> rank(activities_.size());
  for (size_t i = 0; i < topo.size(); ++i) rank[topo[i]] = i;
  Order order;
  order.topo = std::move(topo);
  for (const auto& e : edges_) {
    order.edges.emplace_back(IndexOf(e.from), IndexOf(e.to));
  }
  std::stable_sort(order.edges.begin(), order.edges.end(),
                   [&rank](const auto& a, const auto& b) {
                     return rank[a.first] < rank[b.first];
                   });
  return order;
}

const ProcessDef::Order& ProcessDef::CurrentOrder(Order* fresh) const {
  if (validated_) return order_;
  // An unvalidated definition may have changed since the last Validate().
  *fresh = *ComputeOrder();
  return *fresh;
}

std::vector<bool> ProcessDef::Reach(const std::vector<ActivityId>& starts,
                                    const Order& order) const {
  std::vector<bool> reached(activities_.size(), false);
  for (ActivityId s : starts) reached[IndexOf(s)] = true;
  // Every edge into a node precedes every edge out of it.
  for (const auto& [from, to] : order.edges) {
    if (reached[from]) reached[to] = true;
  }
  return reached;
}

std::vector<ActivityId> ProcessDef::Subtree(
    const std::vector<ActivityId>& starts) const {
  Order fresh;
  const Order& order = CurrentOrder(&fresh);
  const std::vector<bool> reached = Reach(starts, order);
  std::vector<ActivityId> result;
  for (int v : order.topo) {
    if (reached[v]) result.push_back(IdOf(v));
  }
  return result;
}

bool ProcessDef::SubtreeAllRetriable(
    const std::vector<ActivityId>& starts) const {
  std::vector<ActivityId> nodes = Subtree(starts);
  std::set<ActivityId> in_subtree(nodes.begin(), nodes.end());
  for (ActivityId a : nodes) {
    if (!IsRetriableKind(KindOf(a))) return false;
  }
  for (const auto& e : edges_) {
    if (in_subtree.count(e.from) > 0 && e.preference != 0) return false;
  }
  return true;
}

bool ProcessDef::Precedes(ActivityId from, ActivityId to) const {
  if (from == to) return false;
  Order fresh;
  return Reach({from}, CurrentOrder(&fresh))[IndexOf(to)];
}

std::string ProcessDef::ToString() const {
  std::ostringstream oss;
  oss << "Process " << name_ << "\n";
  for (const auto& a : activities_) {
    oss << "  a" << a.id << " [" << ActivityKindToString(a.kind) << "] "
        << a.name << " (service " << a.service;
    if (a.compensation_service.valid()) {
      oss << ", compensation " << a.compensation_service;
    }
    oss << ")\n";
  }
  for (const auto& e : edges_) {
    oss << "  a" << e.from << " << a" << e.to;
    if (e.preference != 0) oss << "  (alternative " << e.preference << ")";
    oss << "\n";
  }
  return oss.str();
}

}  // namespace tpm
