#ifndef TPM_RUNTIME_GLOBAL_PROJECTION_H_
#define TPM_RUNTIME_GLOBAL_PROJECTION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/conflict.h"
#include "core/process.h"
#include "core/schedule.h"

namespace tpm {

/// How one per-shard sub-process of a spanning process maps back into the
/// original (global) definition. Keyed by the sub-definition's name —
/// sub-definitions are unique per spanning instance ("<def>@g<gsn>/s<k>"),
/// so the name identifies both the span and the slice.
struct SpanSubProjection {
  /// Global serial number of the spanning process. All sub-processes of
  /// one gsn merge into ONE global process.
  int64_t gsn = -1;
  /// The original (unsplit) definition; becomes the global process's def.
  const ProcessDef* original = nullptr;
  /// Sub-activity id -> activity id in the original definition.
  std::map<ActivityId, ActivityId> to_original;
  /// Sub-definition names whose FORWARD events must all have been merged
  /// before this sub-process's events may be (the cross-shard dependency
  /// skeleton, re-expressed over emitted events: a skeleton predecessor
  /// voted — finished all forward work — before this slice was even
  /// submitted). Predecessors absent from every history are vacuous.
  std::vector<std::string> forward_preds;
  /// A ◁-alternative tail slice. A failed alternative aborts and the next
  /// one is tried, so a committed span may hold aborted tails; exactly one
  /// of its tails (if it has any) commits.
  bool tail = false;
};

/// Merges per-shard schedules into the global committed-projection view
/// the cross-shard correctness criteria are evaluated on (DESIGN.md §4h):
///
///  * per-shard event order is preserved (all conflicting service pairs
///    are shard-local by the partition invariant, so this preserves the
///    entire conflict order);
///  * the sub-processes of one spanning process are remapped onto ONE
///    global process — original pids and activity ids, one terminal: the
///    local terminals of the slices are consumed silently and a single
///    global C is emitted at the first slice commit (once every slice's
///    forward events are merged; waiting for the LAST terminal instead
///    can deadlock the merge against the skeleton gate), a global A at
///    the last slice terminal of an aborted span. Trunk slices of one
///    span disagreeing on their terminal (some committed, some aborted),
///    or a committed tail with an aborted trunk, or a committed trunk
///    whose tails all aborted, are an atomicity violation and fail the
///    merge (aborted ◁ tails of a committed span are failed alternatives,
///    not a violation) — this is exactly the
///    "no spanning process half-committed" assertion the recovery sweep
///    relies on;
///  * cross-shard program order is restored by the skeleton gate
///    (SpanSubProjection::forward_preds): a slice waits for its skeleton
///    predecessors' forward events and for everything their shards
///    recorded before their votes (ProcessSchedule::VotePosition);
///  * every non-spanning process gets a fresh unique global pid.
///
/// The merge is deterministic: among the shards whose next event is
/// enabled, the lowest shard index goes first. The result is built with
/// legality enforcement off (recovery histories contain group aborts and
/// partial slices a per-process legality check would reject).
Result<ProcessSchedule> MergeGlobalProjection(
    const std::vector<const ProcessSchedule*>& shard_histories,
    const std::map<std::string, SpanSubProjection>& spans);

/// The global recovery assertion: merges the shard histories as above and
/// checks PRED on the result and Proc-REC on its committed projection,
/// over the union conflict spec `spec`. A half-committed span fails the
/// merge itself.
Status VerifyGlobalProjection(
    const std::vector<const ProcessSchedule*>& shard_histories,
    const std::map<std::string, SpanSubProjection>& spans,
    const ConflictSpec& spec);

}  // namespace tpm

#endif  // TPM_RUNTIME_GLOBAL_PROJECTION_H_
