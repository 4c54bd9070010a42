#include "runtime/conflict_partition.h"

#include <algorithm>
#include <numeric>

#include "common/str_util.h"

namespace tpm {

namespace {

/// Plain union-find over dense service indices.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    // Deterministic: the smaller index becomes the root.
    if (a < b) {
      parent_[b] = a;
    } else {
      parent_[a] = b;
    }
  }

 private:
  std::vector<int> parent_;
};

}  // namespace

int ConflictPartition::ShardOfService(const ConflictSpec& spec,
                                      ServiceId service) const {
  const int index = spec.IndexOf(service);
  if (index < 0 || index >= static_cast<int>(shard_of.size())) return -1;
  return shard_of[index];
}

Result<ConflictPartition> ComputeConflictPartition(
    const ConflictSpec& spec, int num_shards,
    const ColocationGroups& colocate) {
  if (num_shards < 1) {
    return Status::InvalidArgument(
        StrCat("num_shards must be >= 1, got ", num_shards));
  }
  const int n = static_cast<int>(spec.NumServices());
  UnionFind uf(static_cast<size_t>(n));
  for (const auto& [a, b] : spec.ConflictPairs()) {
    uf.Union(spec.IndexOf(a), spec.IndexOf(b));
  }
  for (const auto& group : colocate) {
    int first = -1;
    for (ServiceId service : group) {
      const int index = spec.IndexOf(service);
      if (index < 0) {
        return Status::NotFound(
            StrCat("colocation group names service ", service,
                   " which is not registered"));
      }
      if (first < 0) {
        first = index;
      } else {
        uf.Union(first, index);
      }
    }
  }

  ConflictPartition partition;
  partition.num_shards = num_shards;
  partition.component_of.assign(static_cast<size_t>(n), -1);
  // Number components by first appearance in dense-index order.
  std::vector<int> component_of_root(static_cast<size_t>(n), -1);
  std::vector<int64_t> component_size;
  for (int i = 0; i < n; ++i) {
    const int root = uf.Find(i);
    if (component_of_root[root] < 0) {
      component_of_root[root] = static_cast<int>(component_size.size());
      component_size.push_back(0);
    }
    partition.component_of[i] = component_of_root[root];
    ++component_size[component_of_root[root]];
  }

  // Greedy packing: big components first (ties by lower component id —
  // i.e. earlier first appearance), each onto the least-loaded shard
  // (ties by lower shard index).
  std::vector<int> order(component_size.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (component_size[a] != component_size[b]) {
      return component_size[a] > component_size[b];
    }
    return a < b;
  });
  partition.shard_of_component.assign(component_size.size(), -1);
  std::vector<int64_t> load(static_cast<size_t>(num_shards), 0);
  for (int component : order) {
    int best = 0;
    for (int s = 1; s < num_shards; ++s) {
      if (load[s] < load[best]) best = s;
    }
    partition.shard_of_component[component] = best;
    load[best] += component_size[component];
  }

  partition.shard_of.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    partition.shard_of[i] =
        partition.shard_of_component[partition.component_of[i]];
  }
  return partition;
}

Status VerifyPartition(const ConflictSpec& spec,
                       const ConflictPartition& partition,
                       const ColocationGroups& colocate) {
  const size_t n = spec.NumServices();
  if (partition.num_shards < 1) {
    return Status::InvalidArgument("partition has no shards");
  }
  if (partition.component_of.size() != n || partition.shard_of.size() != n) {
    return Status::InvalidArgument(
        StrCat("partition covers ", partition.shard_of.size(), "/",
               partition.component_of.size(), " services, spec has ", n));
  }
  const int num_components = partition.num_components();
  for (size_t i = 0; i < n; ++i) {
    const int component = partition.component_of[i];
    if (component < 0 || component >= num_components) {
      return Status::InvalidArgument(
          StrCat("service ", spec.ServiceAt(i), " has component ", component,
                 " out of range [0, ", num_components, ")"));
    }
    const int shard = partition.shard_of[i];
    if (shard < 0 || shard >= partition.num_shards) {
      return Status::InvalidArgument(
          StrCat("service ", spec.ServiceAt(i), " has shard ", shard,
                 " out of range [0, ", partition.num_shards, ")"));
    }
    if (shard != partition.shard_of_component[component]) {
      return Status::InvalidArgument(
          StrCat("service ", spec.ServiceAt(i), " assigned shard ", shard,
                 " but its component ", component, " owns shard ",
                 partition.shard_of_component[component]));
    }
  }
  for (int c = 0; c < num_components; ++c) {
    const int shard = partition.shard_of_component[c];
    if (shard < 0 || shard >= partition.num_shards) {
      return Status::InvalidArgument(StrCat("component ", c, " has shard ",
                                            shard, " out of range [0, ",
                                            partition.num_shards, ")"));
    }
  }
  // The load-bearing property: no conflict edge crosses shards (checked on
  // the raw relation — op downgrades only remove edges).
  for (const auto& [a, b] : spec.ConflictPairs()) {
    const int ia = spec.IndexOf(a);
    const int ib = spec.IndexOf(b);
    if (partition.shard_of[ia] != partition.shard_of[ib]) {
      return Status::Internal(
          StrCat("conflict edge ", a, " -- ", b, " crosses shards ",
                 partition.shard_of[ia], " and ", partition.shard_of[ib]));
    }
    if (partition.component_of[ia] != partition.component_of[ib]) {
      return Status::Internal(
          StrCat("conflict edge ", a, " -- ", b, " crosses components ",
                 partition.component_of[ia], " and ",
                 partition.component_of[ib]));
    }
  }
  for (const auto& group : colocate) {
    int first_shard = -1;
    ServiceId first_service;
    for (ServiceId service : group) {
      const int shard = partition.ShardOfService(spec, service);
      if (shard < 0) {
        return Status::InvalidArgument(
            StrCat("colocation group names unknown service ", service));
      }
      if (first_shard < 0) {
        first_shard = shard;
        first_service = service;
      } else if (shard != first_shard) {
        return Status::Internal(
            StrCat("colocated services ", first_service, " and ", service,
                   " landed on shards ", first_shard, " and ", shard));
      }
    }
  }
  return Status::OK();
}

}  // namespace tpm
