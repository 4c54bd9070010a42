#include "subsystem/adt_subsystem.h"

#include <utility>

#include "common/fingerprint.h"
#include "common/str_util.h"

namespace tpm {

AdtSubsystem::AdtSubsystem(SubsystemId id, std::string name, std::string kind)
    : id_(id), name_(std::move(name)), kind_(std::move(kind)) {}

Status AdtSubsystem::RegisterOp(ServiceDef def, int op,
                                const std::string& object, int64_t amount) {
  if (amount <= 0) {
    return Status::InvalidArgument(
        StrCat("service ", def.name, ": non-positive amount ", amount));
  }
  def.read_set = {object};
  if (!def.effect_free) def.write_set = {object};
  def.body = [](KvStore*, const ServiceRequest&, int64_t*) {
    return Status::Internal("ADT services are not body-executed");
  };
  TPM_RETURN_IF_ERROR(registry_.Register(def));
  AddObject(object);
  bindings_[def.id] = OpBinding{op, object, amount};
  return Status::OK();
}

bool AdtSubsystem::WouldBlock(ServiceId service) const {
  auto it = bindings_.find(service);
  if (it == bindings_.end()) return false;
  for (const auto& [tx, prep] : prepared_) {
    const OpBinding& held = bindings_.at(prep.service);
    if (held.object != it->second.object) continue;
    if (!OpsCommuteLocally(it->second.op, held.op)) return true;
  }
  return false;
}

Status AdtSubsystem::Execute(ServiceId service, const ServiceRequest& request,
                             int64_t* ret, std::function<void()>* undo) {
  ++invocations_;
  auto it = bindings_.find(service);
  if (it == bindings_.end()) {
    return Status::NotFound(StrCat("unknown ", kind_, " service ", service));
  }
  if (WouldBlock(service)) {
    return Status::Unavailable(
        StrCat(kind_, " service ", service, " blocked by a prepared op"));
  }
  return Apply(it->second, request, ret, undo);
}

Result<InvocationOutcome> AdtSubsystem::Invoke(ServiceId service,
                                               const ServiceRequest& request) {
  int64_t ret = 0;
  TPM_RETURN_IF_ERROR(Execute(service, request, &ret, nullptr));
  return InvocationOutcome{ret};
}

Result<PreparedHandle> AdtSubsystem::InvokePrepared(
    ServiceId service, const ServiceRequest& request) {
  int64_t ret = 0;
  std::function<void()> undo;
  TPM_RETURN_IF_ERROR(Execute(service, request, &ret, &undo));
  TxId tx(next_tx_++);
  prepared_[tx] = PreparedOp{service, std::move(undo)};
  return PreparedHandle{tx, ret};
}

Status AdtSubsystem::CommitPrepared(TxId tx) {
  auto it = prepared_.find(tx);
  if (it == prepared_.end()) {
    return Status::NotFound(StrCat("unknown prepared ", kind_, " tx ", tx));
  }
  prepared_.erase(it);
  return Status::OK();
}

Status AdtSubsystem::AbortPrepared(TxId tx) {
  auto it = prepared_.find(tx);
  if (it == prepared_.end()) {
    return Status::NotFound(StrCat("unknown prepared ", kind_, " tx ", tx));
  }
  it->second.undo();
  prepared_.erase(it);
  return Status::OK();
}

Status AdtSubsystem::AbortAllPrepared() {
  // Presumed abort on recovery: undo in reverse prepare order (LIFO), the
  // order a cascaded rollback would use.
  for (auto it = prepared_.rbegin(); it != prepared_.rend(); ++it) {
    it->second.undo();
  }
  prepared_.clear();
  return Status::OK();
}

uint64_t AdtSubsystem::StateFingerprint() const {
  uint64_t h = Fnv1aInt(kFnv1aOffsetBasis, static_cast<uint64_t>(next_tx_));
  h = Fnv1aInt(h, static_cast<uint64_t>(invocations_));
  return FoldState(h);
}

}  // namespace tpm
