#ifndef TPM_WORKLOAD_MIXED_ADT_TENANT_H_
#define TPM_WORKLOAD_MIXED_ADT_TENANT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/process.h"
#include "subsystem/escrow_subsystem.h"
#include "subsystem/kv_subsystem.h"
#include "subsystem/queue_subsystem.h"

namespace tpm {

/// What the tenants of one world share: the service-id counter (ids are
/// handed out across all tenants in the order services are first used) and
/// the process definitions built over those services.
class ProcessCatalog {
 public:
  /// Reserves `count` consecutive service ids and returns the first.
  int64_t ReserveServiceIds(int count);
  /// Validates `def` (well-formed flex structure) and keeps it; nullptr if
  /// it is invalid.
  const ProcessDef* Finish(std::unique_ptr<ProcessDef> def);
  std::map<std::string, const ProcessDef*> DefsByName() const;

 private:
  std::vector<std::unique_ptr<ProcessDef>> defs_;
  int64_t next_service_id_ = 1;
};

/// One tenant of the mixed-ADT economy: a KV, an escrow-counter and a
/// token-queue subsystem (ids first, first+1, first+2), the services on
/// each key, counter and queue (registered on first use) and the order,
/// consume and refill process shapes over them. `prefix` namespaces the
/// subsystem names, keys, counters and queues ("t3/" in the sharded world,
/// empty in the semantic world).
class MixedAdtTenant {
 public:
  MixedAdtTenant(ProcessCatalog* catalog, SubsystemId first,
                 const std::string& prefix, uint64_t kv_seed,
                 int64_t escrow_initial, int queue_initial_tokens);

  KvSubsystem* kv() { return &kv_; }
  EscrowSubsystem* escrow() { return &escrow_; }
  QueueSubsystem* queue() { return &queue_; }
  const KvSubsystem* kv() const { return &kv_; }
  /// KV, escrow, queue — registration order.
  std::vector<Subsystem*> subsystems() { return {&kv_, &escrow_, &queue_}; }
  /// Every registered service of the tenant.
  std::vector<ServiceId> Services() const;

  /// Lazily registered services. Escrow counters start at
  /// `escrow_initial`; queues are pre-seeded with `queue_initial_tokens`.
  ServiceId KvAdd(const std::string& key) { return EnsureKvKey(key).add; }
  ServiceId KvSub(const std::string& key) { return EnsureKvKey(key).sub; }
  ServiceId EscrowInc(const std::string& c) { return EnsureCounter(c).inc; }
  ServiceId EscrowDec(const std::string& c) { return EnsureCounter(c).dec; }
  ServiceId EscrowWithdraw(const std::string& c) {
    return EnsureCounter(c).withdraw;
  }
  ServiceId Enqueue(const std::string& q) { return EnsureQueue(q).enq; }
  ServiceId Dequeue(const std::string& q) { return EnsureQueue(q).deq; }
  ServiceId Remove(const std::string& q) { return EnsureQueue(q).rm; }
  ServiceId Requeue(const std::string& q) { return EnsureQueue(q).req; }

  /// Producer: enqueue an order token, deposit into the shared stock
  /// counter, pivot an audit write on a per-variant KV key, then prefer
  /// booking revenue (escrow inc) with a KV deferred-booking
  /// ◁-alternative. The escrow and queue touches land on *shared* hot
  /// state, so with op commutativity off these processes serialize and
  /// with it on they run in parallel.
  const ProcessDef* MakeOrderProcess(const std::string& name, int variant);
  /// Consumer: dequeue an order (compensated by requeue-at-front),
  /// withdraw stock under the escrow test (compensated by a deposit — a
  /// Def. 2 pair that is *not* the op table's inverse), pivot a
  /// fulfillment write, then prefer an escrow shipped-counter inc with a
  /// KV backlog ◁-alternative.
  const ProcessDef* MakeConsumeProcess(const std::string& name, int variant);
  /// Refiller: deposit stock, pivot an audit write, then retriably enqueue
  /// a fresh order token.
  const ProcessDef* MakeRefillProcess(const std::string& name, int variant);

  /// Escrow safety envelope, queue token consistency, no negative KV value.
  Status CheckAdtInvariants() const;

 private:
  struct KvServices {
    ServiceId add, sub;
  };
  struct EscrowServices {
    ServiceId inc, dec, withdraw;
  };
  struct QueueServices {
    ServiceId enq, deq, rm, req;
  };

  KvServices& EnsureKvKey(const std::string& key);
  EscrowServices& EnsureCounter(const std::string& counter);
  QueueServices& EnsureQueue(const std::string& queue);

  ProcessCatalog* catalog_;
  std::string prefix_;
  int64_t escrow_initial_;
  int queue_initial_tokens_;
  KvSubsystem kv_;
  EscrowSubsystem escrow_;
  QueueSubsystem queue_;
  std::map<std::string, KvServices> kv_keys_;
  std::map<std::string, EscrowServices> counters_;
  std::map<std::string, QueueServices> queues_;
};

}  // namespace tpm

#endif  // TPM_WORKLOAD_MIXED_ADT_TENANT_H_
