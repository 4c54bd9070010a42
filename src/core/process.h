#ifndef TPM_CORE_PROCESS_H_
#define TPM_CORE_PROCESS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/dag.h"
#include "common/ids.h"
#include "common/status.h"
#include "core/activity.h"

namespace tpm {

/// Declaration of one activity within a process definition.
struct ActivityDecl {
  ActivityId id;
  std::string name;
  ActivityKind kind = ActivityKind::kCompensatable;
  /// Service invoked by this activity; conflicts are declared per service.
  ServiceId service;
  /// Service invoked by the compensating activity a^-1. Only meaningful for
  /// compensatable activities; invalid otherwise.
  ServiceId compensation_service;
};

/// One element of the precedence order `from << to` (Def. 5). `preference`
/// encodes the preference order (the ◁ of the paper): among the edges
/// leaving the same activity, edges are grouped by their preference value;
/// the groups are totally ordered (◁ associates connectors from a common
/// source in a total order). Group 0 is the primary continuation; group k+1
/// is attempted only after the subtree of group k has failed and its
/// executed activities have been compensated (§3.1).
///
/// Edges within the same group are parallel (AND) continuations.
struct PrecedenceEdge {
  ActivityId from;
  ActivityId to;
  int preference = 0;
};

/// A process definition: the triple (A, <<, ◁) of Def. 5.
///
/// Built incrementally via AddActivity/AddEdge, then frozen with
/// Validate(). All query methods require a validated definition.
class ProcessDef {
 public:
  explicit ProcessDef(std::string name = "");

  ProcessDef(const ProcessDef&) = default;
  ProcessDef& operator=(const ProcessDef&) = default;
  ProcessDef(ProcessDef&&) = default;
  ProcessDef& operator=(ProcessDef&&) = default;

  /// Adds an activity; returns its id (dense, starting at 1 to match the
  /// paper's numbering a_{i_1}, a_{i_2}, ...).
  ActivityId AddActivity(std::string name, ActivityKind kind,
                         ServiceId service,
                         ServiceId compensation_service = ServiceId());

  /// Adds `from << to` with the given preference group.
  Status AddEdge(ActivityId from, ActivityId to, int preference = 0);

  /// Checks structural sanity: ids valid, precedence acyclic, compensation
  /// services present exactly on compensatable activities, preference
  /// groups contiguous from 0 per source. Does NOT check the well-formed
  /// flex structure (see flex_structure.h). Idempotent. Also computes the
  /// topological order once, for Subtree and Precedes; a later
  /// AddActivity/AddEdge clears `validated()`, and those queries compute
  /// it afresh until the next Validate().
  Status Validate();

  bool validated() const { return validated_; }

  const std::string& name() const { return name_; }
  size_t num_activities() const { return activities_.size(); }

  /// All activity declarations, indexed by id.value() - 1.
  const std::vector<ActivityDecl>& activities() const { return activities_; }
  const std::vector<PrecedenceEdge>& edges() const { return edges_; }

  bool HasActivity(ActivityId id) const;
  const ActivityDecl& activity(ActivityId id) const;
  ActivityKind KindOf(ActivityId id) const { return activity(id).kind; }

  /// Direct predecessors under << (all preference groups).
  std::vector<ActivityId> Predecessors(ActivityId id) const;

  /// Direct successors grouped by preference, ascending preference order.
  /// result[0] = primary continuation group, result.back() = last
  /// alternative.
  std::vector<std::vector<ActivityId>> SuccessorGroups(ActivityId id) const;

  /// Direct successors in a specific preference group (empty if none).
  std::vector<ActivityId> SuccessorsInGroup(ActivityId id,
                                            int preference) const;

  /// Preference of the edge from -> to, or error if no such edge.
  Result<int> EdgePreference(ActivityId from, ActivityId to) const;

  /// Activities with no predecessors (the entry points of the process).
  std::vector<ActivityId> Roots() const;

  /// All activities reachable from `start` via edges of ANY preference,
  /// including `start`, in topological order.
  std::vector<ActivityId> Subtree(ActivityId start) const;

  /// All activities reachable from the set `starts` (inclusive), topological
  /// order.
  std::vector<ActivityId> Subtree(const std::vector<ActivityId>& starts) const;

  /// True iff every activity in the subtree rooted at each of `starts` is
  /// retriable and no alternative (preference > 0) edges occur inside.
  bool SubtreeAllRetriable(const std::vector<ActivityId>& starts) const;

  /// True iff `to` is reachable from `from` (transitive <<, any preference).
  bool Precedes(ActivityId from, ActivityId to) const;

  /// Renders the process as text (activities, precedence, preference) for
  /// debugging and docs.
  std::string ToString() const;

 private:
  int IndexOf(ActivityId id) const { return static_cast<int>(id.value()) - 1; }
  ActivityId IdOf(int index) const { return ActivityId(index + 1); }
  /// The precedence order over dense indices: one topological order of
  /// the activities, and the edges sorted by their source's place in it,
  /// so one pass over `edges` propagates reachability.
  struct Order {
    std::vector<int> topo;
    std::vector<std::pair<int, int>> edges;
  };
  Dag BuildDag() const;
  // Fails if the precedence order has a cycle.
  Result<Order> ComputeOrder() const;
  // `order_`, or, while the definition is unvalidated, an order computed
  // afresh into `fresh`. Requires an acyclic precedence order.
  const Order& CurrentOrder(Order* fresh) const;
  // Whether each activity is reachable from `starts` (inclusive).
  std::vector<bool> Reach(const std::vector<ActivityId>& starts,
                          const Order& order) const;

  std::string name_;
  std::vector<ActivityDecl> activities_;
  std::vector<PrecedenceEdge> edges_;
  bool validated_ = false;
  /// Set by Validate().
  Order order_;
};

}  // namespace tpm

#endif  // TPM_CORE_PROCESS_H_
