#ifndef TPM_RUNTIME_CONFLICT_PARTITION_H_
#define TPM_RUNTIME_CONFLICT_PARTITION_H_

#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "core/conflict.h"

namespace tpm {

/// A conflict partition: the connected components of the service conflict
/// graph, packed into a fixed number of scheduler shards.
///
/// Why this is sound: conflicts are declared at service granularity
/// (ConflictSpec), so two processes can only ever produce a serialization
/// edge when some pair of their services conflicts — i.e. when those
/// services are connected in the conflict graph. Services in different
/// connected components therefore never contribute a cross-component edge,
/// and schedules of disjoint components compose into a global PRED
/// schedule for free (the commutativity-driven parallelism argument of
/// "Limits of Commutativity on Abstract Data Types"): any interleaving of
/// two histories with no cross conflicts is reducible iff each history is.
/// Running one unmodified single-threaded scheduler per shard hence
/// preserves PRED and Proc-REC globally, with zero cross-shard
/// coordination.
///
/// The partition is computed over the RAW service-level relation
/// (ConflictSpec::ConflictPairs), not the op-downgraded effective one:
/// the op-commutativity layer only ever removes conflicts, so the raw
/// components are a conservative cover that stays valid whichever way a
/// shard's scheduler toggles use_op_commutativity.
struct ConflictPartition {
  int num_shards = 0;
  /// Dense service index (ConflictSpec::IndexOf) -> connected component.
  /// Components are numbered by first appearance in dense-index order, so
  /// the numbering — like everything else here — is deterministic across
  /// runs given the same registration order.
  std::vector<int> component_of;
  /// Connected component -> owning shard.
  std::vector<int> shard_of_component;
  /// Dense service index -> owning shard (composition of the above).
  std::vector<int> shard_of;

  int num_components() const {
    return static_cast<int>(shard_of_component.size());
  }

  /// Owning shard of `service`, or -1 if the service is not interned in
  /// `spec` (i.e. was never registered with the runtime).
  int ShardOfService(const ConflictSpec& spec, ServiceId service) const;
};

/// Groups of services that must land on the same shard for *physical*
/// reasons the conflict relation does not express: services hosted by one
/// subsystem share its store and lock table (a subsystem instance is
/// single-threaded state), and a workload may pin a tenant's services
/// together so its process footprints stay shard-local.
using ColocationGroups = std::vector<std::vector<ServiceId>>;

/// Computes the conflict partition of `spec` for `num_shards` shards:
/// connected components of the raw service conflict graph (unioned with
/// the colocation groups), packed greedily — components in descending
/// size, ties by lowest component id, each onto the currently
/// least-loaded shard, ties to the lowest shard index. Deterministic: the
/// same spec, groups and shard count always produce the identical
/// assignment (the property Recover relies on to reunite shard WALs with
/// their subsystems).
///
/// Fails on num_shards < 1 or a colocation group naming a service `spec`
/// never interned. num_shards may exceed the component count; the surplus
/// shards simply receive no services.
Result<ConflictPartition> ComputeConflictPartition(
    const ConflictSpec& spec, int num_shards,
    const ColocationGroups& colocate = {});

/// Independent checker that `partition` is a valid conflict partition of
/// `spec`: assignment tables complete and in range, mutually consistent,
/// NO raw conflict edge crossing shards, and every colocation group on one
/// shard. This re-derives nothing from the packing heuristic, so it also
/// vets partitions produced elsewhere (or hand-corrupted ones, in tests).
Status VerifyPartition(const ConflictSpec& spec,
                       const ConflictPartition& partition,
                       const ColocationGroups& colocate = {});

}  // namespace tpm

#endif  // TPM_RUNTIME_CONFLICT_PARTITION_H_
