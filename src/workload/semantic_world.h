#ifndef TPM_WORKLOAD_SEMANTIC_WORLD_H_
#define TPM_WORKLOAD_SEMANTIC_WORLD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/virtual_clock.h"
#include "core/process.h"
#include "subsystem/subsystem_proxy.h"
#include "testing/faulty_subsystem.h"
#include "workload/mixed_adt_tenant.h"

namespace tpm {

class TransactionalProcessScheduler;

struct SemanticWorldOptions {
  uint64_t seed = 1;
  /// Health layer applied to every backend (deadline, breaker).
  SubsystemProxyOptions proxy;
  /// Fault model applied to every backend (per-backend overrides via
  /// faulty(i)->set_profile and faulty(i)->AddOutage).
  testing::FaultProfile profile;
  /// Initial balance of every escrow counter created on demand.
  int64_t escrow_initial = 1000;
  /// Initial token count of every queue created on demand.
  int queue_initial_tokens = 8;
};

/// A mixed-ADT world: one MixedAdtTenant (a KV, an escrow-counter and a
/// token-queue subsystem), each subsystem wrapped in the standard
/// failure-domain stack on one shared VirtualClock:
///
///   SubsystemProxy (deadline + circuit breaker)
///     -> FaultySubsystem (seeded transient aborts, latency, outages)
///       -> KvSubsystem | EscrowSubsystem | QueueSubsystem
///
/// plus process factories whose activities span all three backends with
/// ◁-alternatives, so the same workload exercises read/write conflicts, op
/// commutativity tables, Def. 2 compensation pairs across ADTs, and
/// degraded branches. Shared by bench_semantic, the chaos soak and the WAL
/// crash-point sweep.
class SemanticWorld {
 public:
  /// Backend indices for faulty(i)/proxy(i).
  enum Backend { kKv = 0, kEscrow = 1, kQueue = 2, kNumBackends = 3 };

  explicit SemanticWorld(SemanticWorldOptions options);
  ~SemanticWorld();

  VirtualClock* clock() { return &clock_; }
  KvSubsystem* kv() { return tenant_.kv(); }
  EscrowSubsystem* escrow() { return tenant_.escrow(); }
  QueueSubsystem* queue() { return tenant_.queue(); }
  testing::FaultySubsystem* faulty(int i) { return faulty_[i].get(); }
  SubsystemProxy* proxy(int i) { return proxy_[i].get(); }

  /// Registers all three backends (through their proxies) with the
  /// scheduler. The scheduler's options should carry clock() as the shared
  /// time base.
  Status RegisterAll(TransactionalProcessScheduler* scheduler);

  /// Lazily registered services. Escrow counters start at
  /// options.escrow_initial; queues are pre-seeded with
  /// options.queue_initial_tokens tokens.
  ServiceId KvAdd(const std::string& key) { return tenant_.KvAdd(key); }
  ServiceId KvSub(const std::string& key) { return tenant_.KvSub(key); }
  ServiceId EscrowInc(const std::string& c) { return tenant_.EscrowInc(c); }
  ServiceId EscrowDec(const std::string& c) { return tenant_.EscrowDec(c); }
  ServiceId EscrowWithdraw(const std::string& c) {
    return tenant_.EscrowWithdraw(c);
  }
  ServiceId Enqueue(const std::string& q) { return tenant_.Enqueue(q); }
  ServiceId Dequeue(const std::string& q) { return tenant_.Dequeue(q); }
  ServiceId Remove(const std::string& q) { return tenant_.Remove(q); }
  ServiceId Requeue(const std::string& q) { return tenant_.Requeue(q); }

  /// The tenant's order, consume and refill shapes (MixedAdtTenant).
  const ProcessDef* MakeOrderProcess(const std::string& name,
                                     int variant = 0) {
    return tenant_.MakeOrderProcess(name, variant);
  }
  const ProcessDef* MakeConsumeProcess(const std::string& name,
                                       int variant = 0) {
    return tenant_.MakeConsumeProcess(name, variant);
  }
  const ProcessDef* MakeRefillProcess(const std::string& name,
                                      int variant = 0) {
    return tenant_.MakeRefillProcess(name, variant);
  }

  std::map<std::string, const ProcessDef*> DefsByName() const {
    return catalog_.DefsByName();
  }

  /// The combined ADT invariants checked after every chaos/crash recovery:
  /// escrow safety envelope (non-negative stable balances) and queue token
  /// consistency, plus the KV negative-value probe.
  Status CheckAdtInvariants() const { return tenant_.CheckAdtInvariants(); }
  bool AnyNegativeKvValue() const;

 private:
  SemanticWorldOptions options_;
  VirtualClock clock_;
  ProcessCatalog catalog_;
  MixedAdtTenant tenant_;
  std::vector<std::unique_ptr<testing::FaultySubsystem>> faulty_;
  std::vector<std::unique_ptr<SubsystemProxy>> proxy_;
};

}  // namespace tpm

#endif  // TPM_WORKLOAD_SEMANTIC_WORLD_H_
