#include "workload/sharded_world.h"

#include "common/str_util.h"
#include "core/scheduler.h"
#include "runtime/sharded_runtime.h"

namespace tpm {

ShardedWorld::ShardedWorld(ShardedWorldOptions options) : options_(options) {
  for (int t = 0; t < options_.num_tenants; ++t) {
    tenants_.push_back(std::make_unique<MixedAdtTenant>(
        &catalog_, SubsystemId(3 * t + 1), StrCat("t", t, "/"),
        options_.seed * 97 + t, options_.escrow_initial,
        options_.queue_initial_tokens));
  }
}

ShardedWorld::~ShardedWorld() = default;

Status ShardedWorld::RegisterAll(ShardedRuntime* runtime) {
  // Services are created lazily by the Make*Process builders, so a
  // workload touching only some ADTs leaves the rest empty — skip those,
  // the runtime rejects subsystems with no services.
  for (auto& tenant : tenants_) {
    for (Subsystem* s : tenant->subsystems()) {
      if (s->services().AllIds().empty()) continue;
      TPM_RETURN_IF_ERROR(runtime->AddSubsystem(s));
    }
  }
  for (auto& tenant : tenants_) {
    std::vector<ServiceId> group = tenant->Services();
    if (group.size() >= 2) {
      TPM_RETURN_IF_ERROR(runtime->AddColocation(std::move(group)));
    }
  }
  return Status::OK();
}

Status ShardedWorld::RegisterAllSolo(TransactionalProcessScheduler* scheduler) {
  for (auto& tenant : tenants_) {
    for (Subsystem* s : tenant->subsystems()) {
      TPM_RETURN_IF_ERROR(scheduler->RegisterSubsystem(s));
    }
  }
  return Status::OK();
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
  return catalog_.Finish(std::move(def));
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
  return catalog_.Finish(std::move(def));
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
  return catalog_.Finish(std::move(def));
}

Status ShardedWorld::CheckAdtInvariants() const {
  for (const auto& tenant : tenants_) {
    TPM_RETURN_IF_ERROR(tenant->CheckAdtInvariants());
  }
  return Status::OK();
}

}  // namespace tpm
