#include "workload/mixed_adt_tenant.h"

#include <utility>

#include "common/str_util.h"
#include "core/flex_structure.h"

namespace tpm {

int64_t ProcessCatalog::ReserveServiceIds(int count) {
  const int64_t first = next_service_id_;
  next_service_id_ += count;
  return first;
}

const ProcessDef* ProcessCatalog::Finish(std::unique_ptr<ProcessDef> def) {
  if (!def->Validate().ok()) return nullptr;
  if (!ValidateWellFormedFlex(*def).ok()) return nullptr;
  defs_.push_back(std::move(def));
  return defs_.back().get();
}

std::map<std::string, const ProcessDef*> ProcessCatalog::DefsByName() const {
  std::map<std::string, const ProcessDef*> result;
  for (const auto& def : defs_) result[def->name()] = def.get();
  return result;
}

MixedAdtTenant::MixedAdtTenant(ProcessCatalog* catalog, SubsystemId first,
                               const std::string& prefix, uint64_t kv_seed,
                               int64_t escrow_initial,
                               int queue_initial_tokens)
    : catalog_(catalog),
      prefix_(prefix),
      escrow_initial_(escrow_initial),
      queue_initial_tokens_(queue_initial_tokens),
      kv_(first, prefix + "kv", kv_seed),
      escrow_(SubsystemId(first.value() + 1), prefix + "escrow"),
      queue_(SubsystemId(first.value() + 2), prefix + "queue") {}

std::vector<ServiceId> MixedAdtTenant::Services() const {
  std::vector<ServiceId> ids = kv_.services().AllIds();
  for (ServiceId id : escrow_.services().AllIds()) ids.push_back(id);
  for (ServiceId id : queue_.services().AllIds()) ids.push_back(id);
  return ids;
}

MixedAdtTenant::KvServices& MixedAdtTenant::EnsureKvKey(
    const std::string& key) {
  auto it = kv_keys_.find(key);
  if (it != kv_keys_.end()) return it->second;
  const int64_t id = catalog_->ReserveServiceIds(2);
  KvServices ks{ServiceId(id), ServiceId(id + 1)};
  const std::string scoped = prefix_ + key;
  Status s = kv_.RegisterService(
      MakeAddService(ks.add, StrCat("add/", scoped), scoped));
  if (s.ok()) {
    s = kv_.RegisterService(
        MakeSubService(ks.sub, StrCat("sub/", scoped), scoped));
  }
  return kv_keys_.emplace(key, ks).first->second;
}

MixedAdtTenant::EscrowServices& MixedAdtTenant::EnsureCounter(
    const std::string& counter) {
  auto it = counters_.find(counter);
  if (it != counters_.end()) return it->second;
  const int64_t id = catalog_->ReserveServiceIds(3);
  EscrowServices es{ServiceId(id), ServiceId(id + 1), ServiceId(id + 2)};
  const std::string scoped = prefix_ + counter;
  Status s = escrow_.CreateCounter(scoped, escrow_initial_);
  if (s.ok()) s = escrow_.RegisterIncService(es.inc, scoped);
  if (s.ok()) s = escrow_.RegisterDecService(es.dec, scoped);
  if (s.ok()) s = escrow_.RegisterWithdrawService(es.withdraw, scoped);
  return counters_.emplace(counter, es).first->second;
}

MixedAdtTenant::QueueServices& MixedAdtTenant::EnsureQueue(
    const std::string& queue) {
  auto it = queues_.find(queue);
  if (it != queues_.end()) return it->second;
  const int64_t id = catalog_->ReserveServiceIds(4);
  QueueServices qs{ServiceId(id), ServiceId(id + 1), ServiceId(id + 2),
                   ServiceId(id + 3)};
  const std::string scoped = prefix_ + queue;
  Status s = queue_.CreateQueue(scoped, queue_initial_tokens_);
  if (s.ok()) s = queue_.RegisterEnqueueService(qs.enq, scoped);
  if (s.ok()) s = queue_.RegisterDequeueService(qs.deq, scoped);
  if (s.ok()) s = queue_.RegisterRemoveService(qs.rm, scoped);
  if (s.ok()) s = queue_.RegisterRequeueService(qs.req, scoped);
  return queues_.emplace(queue, qs).first->second;
}

const ProcessDef* MixedAdtTenant::MakeOrderProcess(const std::string& name,
                                                   int variant) {
  auto def = std::make_unique<ProcessDef>(name);
  const std::string v = StrCat("v", variant);
  ActivityId c1 = def->AddActivity("enq_order", ActivityKind::kCompensatable,
                                   Enqueue("orders"), Remove("orders"));
  ActivityId c2 = def->AddActivity("deposit", ActivityKind::kCompensatable,
                                   EscrowInc("stock"), EscrowDec("stock"));
  ActivityId p = def->AddActivity("audit", ActivityKind::kPivot,
                                  KvAdd("audit_" + v));
  ActivityId ra = def->AddActivity("book_revenue", ActivityKind::kRetriable,
                                   EscrowInc("revenue"));
  ActivityId rb = def->AddActivity("defer_booking", ActivityKind::kRetriable,
                                   KvAdd("deferred_" + v));
  if (!def->AddEdge(c1, c2).ok() || !def->AddEdge(c2, p).ok() ||
      !def->AddEdge(p, ra, 0).ok() || !def->AddEdge(p, rb, 1).ok()) {
    return nullptr;
  }
  return catalog_->Finish(std::move(def));
}

const ProcessDef* MixedAdtTenant::MakeConsumeProcess(const std::string& name,
                                                     int variant) {
  auto def = std::make_unique<ProcessDef>(name);
  const std::string v = StrCat("v", variant);
  ActivityId c1 = def->AddActivity("deq_order", ActivityKind::kCompensatable,
                                   Dequeue("orders"), Requeue("orders"));
  // Def. 2 pairing beyond the op table's inverse: the withdraw is
  // compensated by a deposit (give the stock back), which the escrow
  // method makes infallible.
  ActivityId c2 = def->AddActivity("take_stock", ActivityKind::kCompensatable,
                                   EscrowWithdraw("stock"),
                                   EscrowInc("stock"));
  ActivityId p = def->AddActivity("fulfill", ActivityKind::kPivot,
                                  KvAdd("fulfilled_" + v));
  ActivityId ra = def->AddActivity("mark_shipped", ActivityKind::kRetriable,
                                   EscrowInc("shipped"));
  ActivityId rb = def->AddActivity("backlog", ActivityKind::kRetriable,
                                   KvAdd("backlog_" + v));
  if (!def->AddEdge(c1, c2).ok() || !def->AddEdge(c2, p).ok() ||
      !def->AddEdge(p, ra, 0).ok() || !def->AddEdge(p, rb, 1).ok()) {
    return nullptr;
  }
  return catalog_->Finish(std::move(def));
}

const ProcessDef* MixedAdtTenant::MakeRefillProcess(const std::string& name,
                                                    int variant) {
  auto def = std::make_unique<ProcessDef>(name);
  const std::string v = StrCat("v", variant);
  ActivityId c1 = def->AddActivity("restock", ActivityKind::kCompensatable,
                                   EscrowInc("stock"), EscrowDec("stock"));
  ActivityId p = def->AddActivity("audit", ActivityKind::kPivot,
                                  KvAdd("refill_audit_" + v));
  ActivityId r = def->AddActivity("announce", ActivityKind::kRetriable,
                                  Enqueue("orders"));
  if (!def->AddEdge(c1, p).ok() || !def->AddEdge(p, r).ok()) return nullptr;
  return catalog_->Finish(std::move(def));
}

Status MixedAdtTenant::CheckAdtInvariants() const {
  TPM_RETURN_IF_ERROR(escrow_.CheckInvariants());
  TPM_RETURN_IF_ERROR(queue_.CheckInvariants());
  for (const auto& [key, value] : kv_.store().Snapshot()) {
    if (value < 0) {
      return Status::Internal(
          StrCat(kv_.name(), ": negative KV value at '", key, "'"));
    }
  }
  return Status::OK();
}

}  // namespace tpm
