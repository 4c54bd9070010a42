#ifndef TPM_RUNTIME_SHARD_ROUTER_H_
#define TPM_RUNTIME_SHARD_ROUTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/process.h"
#include "runtime/conflict_partition.h"

namespace tpm {

/// What the router decided about a definition — a typed decision, so
/// callers branch on the kind instead of string-matching error text.
enum class RouteKind {
  /// The whole footprint lives on one shard: submit there directly.
  kPinned,
  /// The footprint spans shards and the definition decomposes into
  /// per-shard sub-processes plus a cross-shard dependency skeleton
  /// (Split() produces the plan); the cross-shard agent owns execution.
  kSplit,
  /// Not routable: an unregistered service, a compensation on a different
  /// shard than its activity, or a spanning shape the splitter does not
  /// support. `error` carries the positioned diagnostic.
  kRejected,
};

struct RouterDecision {
  RouteKind kind = RouteKind::kRejected;
  /// Target shard for kPinned; -1 otherwise.
  int shard = -1;
  /// The positioned diagnostic for kRejected; OK otherwise.
  Status error = Status::OK();
};

/// One per-shard sub-process of a spanning process.
struct SubProcessPlan {
  int shard = -1;
  /// The sub-definition (validated, well-formed flex). Owned by the plan;
  /// must outlive every runtime that executes it.
  std::unique_ptr<ProcessDef> def;
  /// Sub-activity id -> activity id in the original definition (for the
  /// global projection).
  std::map<ActivityId, ActivityId> to_original;
  /// Indices into SplitPlan::subs of the trunk sub-processes that must
  /// have VOTED before this sub-process may be submitted (the cross-shard
  /// dependency skeleton, derived from cross-shard precedence edges).
  /// Always empty for tails — a tail implicitly depends on every trunk sub.
  std::vector<int> skeleton_preds;
};

/// Decomposition of a spanning process: per-shard trunk sub-processes in
/// topological (skeleton) order, plus at most one family of ◁-alternative
/// tails. The agent executes the trunk, then tries `tails` in preference
/// order (a tail abort moves to the next; a tail vote completes the
/// process; exhausting all tails aborts it globally).
struct SplitPlan {
  std::vector<SubProcessPlan> subs;
  std::vector<SubProcessPlan> tails;
  /// The cross-shard branch point whose ◁ groups became `tails` (invalid
  /// id when the process has no cross-shard alternatives).
  ActivityId tail_branch_point;
};

/// Maps process definitions onto scheduler shards. A process whose entire
/// service footprint (every forward and compensation service, across all
/// preference groups) lives on one shard is pinned there. A spanning
/// footprint is DECOMPOSED: Decide() classifies it kSplit and Split()
/// produces per-shard sub-processes plus the cross-shard dependency
/// skeleton the coordination agent drives (submission order, held 2PC).
///
/// Split is deterministic: the same definition always yields the same
/// sub-definitions (names, ids, edges), which is what lets recovery
/// regenerate them from the original definition and the coordinator log.
///
/// Supported spanning shapes (staged; anything else is kRejected with a
/// positioned diagnostic):
///  * every activity's compensation service on the same shard as the
///    activity itself (a sub-process must compensate locally),
///  * the shard-quotient of the precedence graph acyclic (each shard's
///    slice is a contiguous stage of the process),
///  * ◁-alternatives either entirely shard-local, or hanging off at most
///    one cross-shard branch point whose groups are shard-pure terminal
///    subtrees (they become the plan's tails).
class ShardRouter {
 public:
  /// Both referents must outlive the router.
  ShardRouter(const ConflictSpec* spec, const ConflictPartition* partition);

  /// Classifies `def`: kPinned (with shard), kSplit, or kRejected (with
  /// the positioned error). A kSplit decision guarantees Split() succeeds.
  RouterDecision Decide(const ProcessDef& def) const;

  /// Decomposes a spanning definition into a SplitPlan. Sub-definitions
  /// are named "<name_prefix>/s<shard>", tails "<name_prefix>/t<k>".
  /// Errors mirror Decide()'s kRejected diagnostics.
  Result<SplitPlan> Split(const ProcessDef& def,
                          const std::string& name_prefix) const;

  /// Shard owning `service`, or -1 if unknown. The partition is fixed at
  /// Start, so routing is a pure function of it.
  int ShardOfService(ServiceId service) const;

 private:
  /// Per-activity owner shards (forward service), with the co-location
  /// check for compensation services. Positioned errors.
  Result<std::vector<int>> OwnerShards(const ProcessDef& def) const;

  const ConflictSpec* spec_;
  const ConflictPartition* partition_;
};

}  // namespace tpm

#endif  // TPM_RUNTIME_SHARD_ROUTER_H_
