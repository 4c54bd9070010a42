#ifndef TPM_WORKLOAD_SHARDED_WORLD_H_
#define TPM_WORKLOAD_SHARDED_WORLD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/process.h"
#include "workload/mixed_adt_tenant.h"

namespace tpm {

class ShardedRuntime;
class TransactionalProcessScheduler;

struct ShardedWorldOptions {
  uint64_t seed = 1;
  /// Independent tenants; tenant t's state is disjoint from every other
  /// tenant's, so the conflict graph has (at least) one component per
  /// tenant and the partitioner can spread tenants across shards.
  int num_tenants = 4;
  /// Initial balance of every escrow counter created on demand.
  int64_t escrow_initial = 1000;
  /// Initial token count of every queue created on demand.
  int queue_initial_tokens = 8;
};

/// The multi-tenant workload behind the sharded runtime: `num_tenants`
/// MixedAdtTenants (one KV, one escrow-counter and one token-queue
/// subsystem per tenant — separate instances, since a subsystem registers
/// with exactly one shard scheduler) sharing one ProcessCatalog. Keys,
/// counters and queues are namespaced per tenant, so inter-tenant
/// conflicts are impossible and each tenant is its own connected
/// component; a per-tenant colocation group additionally pins all three
/// of a tenant's subsystems to one shard, so every tenant-local process
/// footprint routes cleanly.
///
/// The same world registers against a ShardedRuntime (RegisterAll) or a
/// single solo scheduler (RegisterAllSolo) — the lockstep-equivalence test
/// runs one world per side and compares histories shard by shard.
class ShardedWorld {
 public:
  explicit ShardedWorld(ShardedWorldOptions options);
  ~ShardedWorld();

  int num_tenants() const { return options_.num_tenants; }
  KvSubsystem* kv(int tenant) { return tenants_[tenant]->kv(); }
  EscrowSubsystem* escrow(int tenant) { return tenants_[tenant]->escrow(); }
  QueueSubsystem* queue(int tenant) { return tenants_[tenant]->queue(); }

  /// Adds every tenant's subsystems plus the per-tenant colocation groups
  /// to the runtime. Call before runtime->Start().
  Status RegisterAll(ShardedRuntime* runtime);

  /// Registers every tenant's subsystems with one solo scheduler (the
  /// single-threaded baseline the equivalence test compares against).
  Status RegisterAllSolo(TransactionalProcessScheduler* scheduler);

  /// All services of one tenant (its colocation group).
  std::vector<ServiceId> TenantServices(int tenant) const {
    return tenants_[tenant]->Services();
  }

  /// Per-tenant lazily registered services; names are tenant-namespaced.
  ServiceId KvAdd(int t, const std::string& key) {
    return tenants_[t]->KvAdd(key);
  }
  ServiceId KvSub(int t, const std::string& key) {
    return tenants_[t]->KvSub(key);
  }
  ServiceId EscrowInc(int t, const std::string& counter) {
    return tenants_[t]->EscrowInc(counter);
  }
  ServiceId EscrowDec(int t, const std::string& counter) {
    return tenants_[t]->EscrowDec(counter);
  }
  ServiceId EscrowWithdraw(int t, const std::string& counter) {
    return tenants_[t]->EscrowWithdraw(counter);
  }
  ServiceId Enqueue(int t, const std::string& queue) {
    return tenants_[t]->Enqueue(queue);
  }
  ServiceId Dequeue(int t, const std::string& queue) {
    return tenants_[t]->Dequeue(queue);
  }
  ServiceId Remove(int t, const std::string& queue) {
    return tenants_[t]->Remove(queue);
  }
  ServiceId Requeue(int t, const std::string& queue) {
    return tenants_[t]->Requeue(queue);
  }

  /// Tenant-local order, consume and refill shapes (MixedAdtTenant).
  const ProcessDef* MakeOrderProcess(int t, const std::string& name,
                                     int variant = 0) {
    return tenants_[t]->MakeOrderProcess(name, variant);
  }
  const ProcessDef* MakeConsumeProcess(int t, const std::string& name,
                                       int variant = 0) {
    return tenants_[t]->MakeConsumeProcess(name, variant);
  }
  const ProcessDef* MakeRefillProcess(int t, const std::string& name,
                                      int variant = 0) {
    return tenants_[t]->MakeRefillProcess(name, variant);
  }

  /// A cross-shard process: enqueues into `tenant_a`'s order queue
  /// (compensatable), then pivots a deposit into `tenant_b`'s stock
  /// counter. When the tenants live on different shards the router splits
  /// it into two sub-processes and the coordination agent drives the
  /// distributed commit; same-shard tenants keep it on the pinned fast
  /// path.
  const ProcessDef* MakeSpanningProcess(const std::string& name, int tenant_a,
                                        int tenant_b);
  /// A multi-hop chain across three tenants: compensatable order enqueue
  /// on `tenant_a`, compensatable stock deposit + pivot audit on
  /// `tenant_b`, retriable announcement into `tenant_c`'s queue — a
  /// three-stage cross-shard dependency skeleton.
  const ProcessDef* MakeSpanningChainProcess(const std::string& name,
                                             int tenant_a, int tenant_b,
                                             int tenant_c);
  /// Cross-shard ◁ alternatives: trunk (compensatable enqueue + pivot
  /// audit) on `tenant_a`, then a preferred revenue booking on `tenant_b`
  /// ◁ a fallback backlog write on `tenant_c` — the splitter turns the
  /// groups into preference-ordered tails the agent tries in order.
  const ProcessDef* MakeSpanningAltProcess(const std::string& name,
                                           int tenant_a, int tenant_b,
                                           int tenant_c);

  std::map<std::string, const ProcessDef*> DefsByName() const {
    return catalog_.DefsByName();
  }

  /// ADT invariants over every tenant: escrow safety envelope, queue token
  /// consistency, no negative KV value.
  Status CheckAdtInvariants() const;

 private:
  ShardedWorldOptions options_;
  ProcessCatalog catalog_;
  std::vector<std::unique_ptr<MixedAdtTenant>> tenants_;
};

}  // namespace tpm

#endif  // TPM_WORKLOAD_SHARDED_WORLD_H_
