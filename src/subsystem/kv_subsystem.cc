#include "subsystem/kv_subsystem.h"

#include "common/fingerprint.h"
#include "common/str_util.h"

namespace tpm {

KvSubsystem::KvSubsystem(SubsystemId id, std::string name, uint64_t seed)
    : id_(id), name_(std::move(name)), rng_(seed) {}

Status KvSubsystem::RegisterService(ServiceDef def) {
  return registry_.Register(std::move(def));
}

Status KvSubsystem::MaybeInjectFailure(ServiceId service) {
  auto scripted = scripted_failures_.find(service);
  if (scripted != scripted_failures_.end() && scripted->second > 0) {
    --scripted->second;
    ++injected_aborts_;
    return Status::Aborted(
        StrCat("scripted failure of service ", service, " in ", name_));
  }
  auto prob = failure_probability_.find(service);
  if (prob != failure_probability_.end() && rng_.NextBool(prob->second)) {
    ++injected_aborts_;
    return Status::Aborted(
        StrCat("random failure of service ", service, " in ", name_));
  }
  return Status::OK();
}

Status KvSubsystem::InjectFailureWithRetry(ServiceId service) {
  Status status = MaybeInjectFailure(service);
  int attempt = 1;
  while (!status.ok() && status.IsAborted() &&
         attempt < retry_policy_.max_attempts) {
    ++internal_retries_;
    const int64_t wait = retry_policy_.BackoffTicks(
        attempt, retry_policy_.full_jitter ? &rng_ : nullptr);
    backoff_ticks_waited_ += wait;
    if (clock_ != nullptr) {
      clock_->Advance(wait);
      // The caller's invocation budget bounds the retry loop: once the
      // deadline is hit mid-backoff, stop masking and surface the abort.
      if (clock_->deadline_expired()) return status;
    }
    ++attempt;
    status = MaybeInjectFailure(service);
  }
  return status;
}

Result<InvocationOutcome> KvSubsystem::Invoke(ServiceId service,
                                              const ServiceRequest& request) {
  TPM_ASSIGN_OR_RETURN(const ServiceDef* def, registry_.Lookup(service));
  if (tx_manager_.WouldBlock(*def)) {
    return Status::Unavailable(
        StrCat("service ", def->name, " blocked by prepared transaction"));
  }
  ++invocations_;
  TPM_RETURN_IF_ERROR(InjectFailureWithRetry(service));
  return tx_manager_.InvokeImmediate(*def, request);
}

Result<PreparedHandle> KvSubsystem::InvokePrepared(
    ServiceId service, const ServiceRequest& request) {
  TPM_ASSIGN_OR_RETURN(const ServiceDef* def, registry_.Lookup(service));
  if (tx_manager_.WouldBlock(*def)) {
    return Status::Unavailable(
        StrCat("service ", def->name, " blocked by prepared transaction"));
  }
  ++invocations_;
  TPM_RETURN_IF_ERROR(InjectFailureWithRetry(service));
  return tx_manager_.InvokePrepared(*def, request);
}

Status KvSubsystem::CommitPrepared(TxId tx) {
  return tx_manager_.CommitPrepared(tx);
}

Status KvSubsystem::AbortPrepared(TxId tx) {
  return tx_manager_.AbortPrepared(tx);
}

Status KvSubsystem::AbortAllPrepared() {
  tx_manager_.AbortAllPrepared();
  return Status::OK();
}

bool KvSubsystem::WouldBlock(ServiceId service) const {
  auto def = registry_.Lookup(service);
  if (!def.ok()) return false;
  return tx_manager_.WouldBlock(**def);
}

void KvSubsystem::ScheduleFailures(ServiceId service, int count) {
  scripted_failures_[service] += count;
}

void KvSubsystem::SetFailureProbability(ServiceId service, double p) {
  failure_probability_[service] = p;
}

uint64_t KvSubsystem::StateFingerprint() const {
  uint64_t h = kFnv1aOffsetBasis;
  for (const auto& [key, value] : store_.Snapshot()) {
    h = Fnv1a(h, key);
    h = Fnv1aInt(h, static_cast<uint64_t>(value));
  }
  h = Fnv1aInt(h, store_.version());
  for (const auto& [service, remaining] : scripted_failures_) {
    h = Fnv1aInt(h, static_cast<uint64_t>(service.value()));
    h = Fnv1aInt(h, static_cast<uint64_t>(remaining));
  }
  h = Fnv1aInt(h, static_cast<uint64_t>(invocations_));
  h = Fnv1aInt(h, static_cast<uint64_t>(injected_aborts_));
  h = Fnv1aInt(h, static_cast<uint64_t>(internal_retries_));
  h = Fnv1aInt(h, static_cast<uint64_t>(backoff_ticks_waited_));
  return h;
}

}  // namespace tpm
