#ifndef TPM_WORKLOAD_SHARDED_WORLD_H_
#define TPM_WORKLOAD_SHARDED_WORLD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/process.h"
#include "runtime/conflict_partition.h"
#include "subsystem/escrow_subsystem.h"
#include "subsystem/kv_subsystem.h"
#include "subsystem/queue_subsystem.h"

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
/// copies of the mixed-ADT economy (one KV, one escrow-counter and one
/// token-queue subsystem per tenant — separate instances, since a
/// subsystem registers with exactly one shard scheduler). Keys, counters
/// and queues are namespaced per tenant, so inter-tenant conflicts are
/// impossible and each tenant is its own connected component; a per-tenant
/// colocation group additionally pins all three of a tenant's subsystems
/// to one shard, so every tenant-local process footprint routes cleanly.
///
/// The same world registers against a ShardedRuntime (RegisterAll) or a
/// single solo scheduler (RegisterAllSolo) — the lockstep-equivalence test
/// runs one world per side and compares histories shard by shard.
class ShardedWorld {
 public:
  explicit ShardedWorld(ShardedWorldOptions options);
  ~ShardedWorld();

  int num_tenants() const { return options_.num_tenants; }
  KvSubsystem* kv(int tenant) { return tenants_[tenant].kv.get(); }
  EscrowSubsystem* escrow(int tenant) { return tenants_[tenant].escrow.get(); }
  QueueSubsystem* queue(int tenant) { return tenants_[tenant].queue.get(); }

  /// Adds every tenant's subsystems plus the per-tenant colocation groups
  /// to the runtime. Call before runtime->Start().
  Status RegisterAll(ShardedRuntime* runtime);

  /// Registers every tenant's subsystems with one solo scheduler (the
  /// single-threaded baseline the equivalence test compares against).
  Status RegisterAllSolo(TransactionalProcessScheduler* scheduler);

  /// All services of one tenant (its colocation group).
  std::vector<ServiceId> TenantServices(int tenant) const;

  /// Per-tenant lazily registered services; names are tenant-namespaced.
  ServiceId KvAdd(int tenant, const std::string& key);
  ServiceId KvSub(int tenant, const std::string& key);
  ServiceId EscrowInc(int tenant, const std::string& counter);
  ServiceId EscrowDec(int tenant, const std::string& counter);
  ServiceId EscrowWithdraw(int tenant, const std::string& counter);
  ServiceId Enqueue(int tenant, const std::string& queue);
  ServiceId Dequeue(int tenant, const std::string& queue);
  ServiceId Remove(int tenant, const std::string& queue);
  ServiceId Requeue(int tenant, const std::string& queue);

  /// Tenant-local copies of the semantic-world process shapes: enqueue an
  /// order + deposit stock (compensatable), pivot an audit write, then a
  /// ◁-preferred revenue booking with a KV fallback.
  const ProcessDef* MakeOrderProcess(int tenant, const std::string& name,
                                     int variant = 0);
  /// Dequeue + withdraw (Def. 2 compensations), pivot fulfillment, then a
  /// ◁-preferred shipped-counter inc with a KV backlog fallback.
  const ProcessDef* MakeConsumeProcess(int tenant, const std::string& name,
                                       int variant = 0);
  /// Deposit stock, pivot an audit write, retriably announce a token.
  const ProcessDef* MakeRefillProcess(int tenant, const std::string& name,
                                      int variant = 0);

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

  std::map<std::string, const ProcessDef*> DefsByName() const;

  /// ADT invariants over every tenant: escrow safety envelope, queue token
  /// consistency, no negative KV value.
  Status CheckAdtInvariants() const;

 private:
  struct EscrowServices {
    ServiceId inc, dec, withdraw;
  };
  struct QueueServices {
    ServiceId enq, deq, rm, req;
  };
  struct KvServices {
    ServiceId add, sub;
  };
  struct Tenant {
    std::unique_ptr<KvSubsystem> kv;
    std::unique_ptr<EscrowSubsystem> escrow;
    std::unique_ptr<QueueSubsystem> queue;
    std::map<std::string, EscrowServices> counters;
    std::map<std::string, QueueServices> queues;
    std::map<std::string, KvServices> kv_keys;
  };

  EscrowServices& EnsureCounter(int tenant, const std::string& counter);
  QueueServices& EnsureQueue(int tenant, const std::string& queue);
  KvServices& EnsureKvKey(int tenant, const std::string& key);
  const ProcessDef* Finish(std::unique_ptr<ProcessDef> def);

  ShardedWorldOptions options_;
  std::vector<Tenant> tenants_;
  std::vector<std::unique_ptr<ProcessDef>> defs_;
  int64_t next_service_id_ = 1;
};

}  // namespace tpm

#endif  // TPM_WORKLOAD_SHARDED_WORLD_H_
