#include "workload/sharded_world.h"

#include "common/str_util.h"
#include "core/flex_structure.h"
#include "core/scheduler.h"
#include "runtime/sharded_runtime.h"

namespace tpm {

ShardedWorld::ShardedWorld(ShardedWorldOptions options) : options_(options) {
  tenants_.resize(options_.num_tenants);
  for (int t = 0; t < options_.num_tenants; ++t) {
    const std::string prefix = StrCat("t", t, "/");
    tenants_[t].kv = std::make_unique<KvSubsystem>(
        SubsystemId(3 * t + 1), prefix + "kv", options_.seed * 97 + t);
    tenants_[t].escrow = std::make_unique<EscrowSubsystem>(
        SubsystemId(3 * t + 2), prefix + "escrow");
    tenants_[t].queue = std::make_unique<QueueSubsystem>(
        SubsystemId(3 * t + 3), prefix + "queue");
  }
}

ShardedWorld::~ShardedWorld() = default;

Status ShardedWorld::RegisterAll(ShardedRuntime* runtime) {
  // Services are created lazily by the Make*Process builders, so a
  // workload touching only some ADTs leaves the rest empty — skip those,
  // the runtime rejects subsystems with no services.
  for (auto& tenant : tenants_) {
    for (Subsystem* s : {static_cast<Subsystem*>(tenant.kv.get()),
                         static_cast<Subsystem*>(tenant.escrow.get()),
                         static_cast<Subsystem*>(tenant.queue.get())}) {
      if (s->services().AllIds().empty()) continue;
      TPM_RETURN_IF_ERROR(runtime->AddSubsystem(s));
    }
  }
  for (int t = 0; t < options_.num_tenants; ++t) {
    std::vector<ServiceId> group = TenantServices(t);
    if (group.size() >= 2) {
      TPM_RETURN_IF_ERROR(runtime->AddColocation(std::move(group)));
    }
  }
  return Status::OK();
}

Status ShardedWorld::RegisterAllSolo(TransactionalProcessScheduler* scheduler) {
  for (auto& tenant : tenants_) {
    TPM_RETURN_IF_ERROR(scheduler->RegisterSubsystem(tenant.kv.get()));
    TPM_RETURN_IF_ERROR(scheduler->RegisterSubsystem(tenant.escrow.get()));
    TPM_RETURN_IF_ERROR(scheduler->RegisterSubsystem(tenant.queue.get()));
  }
  return Status::OK();
}

std::vector<ServiceId> ShardedWorld::TenantServices(int tenant) const {
  std::vector<ServiceId> ids;
  const Tenant& t = tenants_[tenant];
  for (ServiceId id : t.kv->services().AllIds()) ids.push_back(id);
  for (ServiceId id : t.escrow->services().AllIds()) ids.push_back(id);
  for (ServiceId id : t.queue->services().AllIds()) ids.push_back(id);
  return ids;
}

ShardedWorld::KvServices& ShardedWorld::EnsureKvKey(int tenant,
                                                    const std::string& key) {
  Tenant& t = tenants_[tenant];
  auto it = t.kv_keys.find(key);
  if (it != t.kv_keys.end()) return it->second;
  KvServices ks{ServiceId(next_service_id_), ServiceId(next_service_id_ + 1)};
  next_service_id_ += 2;
  const std::string scoped = StrCat("t", tenant, "/", key);
  Status s = t.kv->RegisterService(
      MakeAddService(ks.add, StrCat("add/", scoped), scoped));
  if (s.ok()) {
    s = t.kv->RegisterService(
        MakeSubService(ks.sub, StrCat("sub/", scoped), scoped));
  }
  return t.kv_keys.emplace(key, ks).first->second;
}

ShardedWorld::EscrowServices& ShardedWorld::EnsureCounter(
    int tenant, const std::string& counter) {
  Tenant& t = tenants_[tenant];
  auto it = t.counters.find(counter);
  if (it != t.counters.end()) return it->second;
  EscrowServices es{ServiceId(next_service_id_),
                    ServiceId(next_service_id_ + 1),
                    ServiceId(next_service_id_ + 2)};
  next_service_id_ += 3;
  const std::string scoped = StrCat("t", tenant, "/", counter);
  Status s = t.escrow->CreateCounter(scoped, options_.escrow_initial);
  if (s.ok()) s = t.escrow->RegisterIncService(es.inc, scoped);
  if (s.ok()) s = t.escrow->RegisterDecService(es.dec, scoped);
  if (s.ok()) s = t.escrow->RegisterWithdrawService(es.withdraw, scoped);
  return t.counters.emplace(counter, es).first->second;
}

ShardedWorld::QueueServices& ShardedWorld::EnsureQueue(
    int tenant, const std::string& queue) {
  Tenant& t = tenants_[tenant];
  auto it = t.queues.find(queue);
  if (it != t.queues.end()) return it->second;
  QueueServices qs{
      ServiceId(next_service_id_), ServiceId(next_service_id_ + 1),
      ServiceId(next_service_id_ + 2), ServiceId(next_service_id_ + 3)};
  next_service_id_ += 4;
  const std::string scoped = StrCat("t", tenant, "/", queue);
  Status s = t.queue->CreateQueue(scoped, options_.queue_initial_tokens);
  if (s.ok()) s = t.queue->RegisterEnqueueService(qs.enq, scoped);
  if (s.ok()) s = t.queue->RegisterDequeueService(qs.deq, scoped);
  if (s.ok()) s = t.queue->RegisterRemoveService(qs.rm, scoped);
  if (s.ok()) s = t.queue->RegisterRequeueService(qs.req, scoped);
  return t.queues.emplace(queue, qs).first->second;
}

ServiceId ShardedWorld::KvAdd(int tenant, const std::string& key) {
  return EnsureKvKey(tenant, key).add;
}
ServiceId ShardedWorld::KvSub(int tenant, const std::string& key) {
  return EnsureKvKey(tenant, key).sub;
}
ServiceId ShardedWorld::EscrowInc(int tenant, const std::string& counter) {
  return EnsureCounter(tenant, counter).inc;
}
ServiceId ShardedWorld::EscrowDec(int tenant, const std::string& counter) {
  return EnsureCounter(tenant, counter).dec;
}
ServiceId ShardedWorld::EscrowWithdraw(int tenant,
                                       const std::string& counter) {
  return EnsureCounter(tenant, counter).withdraw;
}
ServiceId ShardedWorld::Enqueue(int tenant, const std::string& queue) {
  return EnsureQueue(tenant, queue).enq;
}
ServiceId ShardedWorld::Dequeue(int tenant, const std::string& queue) {
  return EnsureQueue(tenant, queue).deq;
}
ServiceId ShardedWorld::Remove(int tenant, const std::string& queue) {
  return EnsureQueue(tenant, queue).rm;
}
ServiceId ShardedWorld::Requeue(int tenant, const std::string& queue) {
  return EnsureQueue(tenant, queue).req;
}

const ProcessDef* ShardedWorld::Finish(std::unique_ptr<ProcessDef> def) {
  if (!def->Validate().ok()) return nullptr;
  if (!ValidateWellFormedFlex(*def).ok()) return nullptr;
  defs_.push_back(std::move(def));
  return defs_.back().get();
}

const ProcessDef* ShardedWorld::MakeOrderProcess(int tenant,
                                                 const std::string& name,
                                                 int variant) {
  auto def = std::make_unique<ProcessDef>(name);
  const std::string v = StrCat("v", variant);
  ActivityId c1 =
      def->AddActivity("enq_order", ActivityKind::kCompensatable,
                       Enqueue(tenant, "orders"), Remove(tenant, "orders"));
  ActivityId c2 = def->AddActivity("deposit", ActivityKind::kCompensatable,
                                   EscrowInc(tenant, "stock"),
                                   EscrowDec(tenant, "stock"));
  ActivityId p = def->AddActivity("audit", ActivityKind::kPivot,
                                  KvAdd(tenant, "audit_" + v));
  ActivityId ra = def->AddActivity("book_revenue", ActivityKind::kRetriable,
                                   EscrowInc(tenant, "revenue"));
  ActivityId rb = def->AddActivity("defer_booking", ActivityKind::kRetriable,
                                   KvAdd(tenant, "deferred_" + v));
  if (!def->AddEdge(c1, c2).ok() || !def->AddEdge(c2, p).ok() ||
      !def->AddEdge(p, ra, 0).ok() || !def->AddEdge(p, rb, 1).ok()) {
    return nullptr;
  }
  return Finish(std::move(def));
}

const ProcessDef* ShardedWorld::MakeConsumeProcess(int tenant,
                                                   const std::string& name,
                                                   int variant) {
  auto def = std::make_unique<ProcessDef>(name);
  const std::string v = StrCat("v", variant);
  ActivityId c1 =
      def->AddActivity("deq_order", ActivityKind::kCompensatable,
                       Dequeue(tenant, "orders"), Requeue(tenant, "orders"));
  ActivityId c2 = def->AddActivity("take_stock", ActivityKind::kCompensatable,
                                   EscrowWithdraw(tenant, "stock"),
                                   EscrowInc(tenant, "stock"));
  ActivityId p = def->AddActivity("fulfill", ActivityKind::kPivot,
                                  KvAdd(tenant, "fulfilled_" + v));
  ActivityId ra = def->AddActivity("mark_shipped", ActivityKind::kRetriable,
                                   EscrowInc(tenant, "shipped"));
  ActivityId rb = def->AddActivity("backlog", ActivityKind::kRetriable,
                                   KvAdd(tenant, "backlog_" + v));
  if (!def->AddEdge(c1, c2).ok() || !def->AddEdge(c2, p).ok() ||
      !def->AddEdge(p, ra, 0).ok() || !def->AddEdge(p, rb, 1).ok()) {
    return nullptr;
  }
  return Finish(std::move(def));
}

const ProcessDef* ShardedWorld::MakeRefillProcess(int tenant,
                                                  const std::string& name,
                                                  int variant) {
  auto def = std::make_unique<ProcessDef>(name);
  const std::string v = StrCat("v", variant);
  ActivityId c1 = def->AddActivity("restock", ActivityKind::kCompensatable,
                                   EscrowInc(tenant, "stock"),
                                   EscrowDec(tenant, "stock"));
  ActivityId p = def->AddActivity("audit", ActivityKind::kPivot,
                                  KvAdd(tenant, "refill_audit_" + v));
  ActivityId r = def->AddActivity("announce", ActivityKind::kRetriable,
                                  Enqueue(tenant, "orders"));
  if (!def->AddEdge(c1, p).ok() || !def->AddEdge(p, r).ok()) return nullptr;
  return Finish(std::move(def));
}

const ProcessDef* ShardedWorld::MakeSpanningProcess(const std::string& name,
                                                    int tenant_a,
                                                    int tenant_b) {
  auto def = std::make_unique<ProcessDef>(name);
  ActivityId c1 = def->AddActivity("enq_order", ActivityKind::kCompensatable,
                                   Enqueue(tenant_a, "orders"),
                                   Remove(tenant_a, "orders"));
  ActivityId p = def->AddActivity("cross_deposit", ActivityKind::kPivot,
                                  EscrowInc(tenant_b, "stock"));
  if (!def->AddEdge(c1, p).ok()) return nullptr;
  return Finish(std::move(def));
}

const ProcessDef* ShardedWorld::MakeSpanningChainProcess(
    const std::string& name, int tenant_a, int tenant_b, int tenant_c) {
  auto def = std::make_unique<ProcessDef>(name);
  ActivityId c1 = def->AddActivity("enq_order", ActivityKind::kCompensatable,
                                   Enqueue(tenant_a, "orders"),
                                   Remove(tenant_a, "orders"));
  ActivityId c2 = def->AddActivity("deposit", ActivityKind::kCompensatable,
                                   EscrowInc(tenant_b, "stock"),
                                   EscrowDec(tenant_b, "stock"));
  ActivityId p = def->AddActivity("audit", ActivityKind::kPivot,
                                  KvAdd(tenant_b, "span_audit"));
  ActivityId r = def->AddActivity("announce", ActivityKind::kRetriable,
                                  Enqueue(tenant_c, "orders"));
  if (!def->AddEdge(c1, c2).ok() || !def->AddEdge(c2, p).ok() ||
      !def->AddEdge(p, r).ok()) {
    return nullptr;
  }
  return Finish(std::move(def));
}

const ProcessDef* ShardedWorld::MakeSpanningAltProcess(const std::string& name,
                                                       int tenant_a,
                                                       int tenant_b,
                                                       int tenant_c) {
  auto def = std::make_unique<ProcessDef>(name);
  ActivityId c1 = def->AddActivity("enq_order", ActivityKind::kCompensatable,
                                   Enqueue(tenant_a, "orders"),
                                   Remove(tenant_a, "orders"));
  ActivityId p = def->AddActivity("audit", ActivityKind::kPivot,
                                  KvAdd(tenant_a, "alt_audit"));
  ActivityId ra = def->AddActivity("book_revenue", ActivityKind::kRetriable,
                                   EscrowInc(tenant_b, "revenue"));
  ActivityId rb = def->AddActivity("backlog", ActivityKind::kRetriable,
                                   KvAdd(tenant_c, "alt_backlog"));
  if (!def->AddEdge(c1, p).ok() || !def->AddEdge(p, ra, 0).ok() ||
      !def->AddEdge(p, rb, 1).ok()) {
    return nullptr;
  }
  return Finish(std::move(def));
}

std::map<std::string, const ProcessDef*> ShardedWorld::DefsByName() const {
  std::map<std::string, const ProcessDef*> result;
  for (const auto& def : defs_) result[def->name()] = def.get();
  return result;
}

Status ShardedWorld::CheckAdtInvariants() const {
  for (int t = 0; t < options_.num_tenants; ++t) {
    const Tenant& tenant = tenants_[t];
    TPM_RETURN_IF_ERROR(tenant.escrow->CheckInvariants());
    TPM_RETURN_IF_ERROR(tenant.queue->CheckInvariants());
    for (const auto& [key, value] : tenant.kv->store().Snapshot()) {
      if (value < 0) {
        return Status::Internal(
            StrCat("tenant ", t, ": negative KV value at '", key, "'"));
      }
    }
  }
  return Status::OK();
}

}  // namespace tpm
