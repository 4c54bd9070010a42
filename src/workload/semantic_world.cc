#include "workload/semantic_world.h"

#include "core/scheduler.h"

namespace tpm {

SemanticWorld::SemanticWorld(SemanticWorldOptions options)
    : options_(options),
      tenant_(&catalog_, SubsystemId(1), "", options_.seed,
              options_.escrow_initial, options_.queue_initial_tokens) {
  tenant_.kv()->SetClock(&clock_);
  std::vector<Subsystem*> backends = tenant_.subsystems();
  for (int i = 0; i < kNumBackends; ++i) {
    faulty_.push_back(std::make_unique<testing::FaultySubsystem>(
        backends[i], &clock_, options_.profile, options_.seed * 1000 + i));
    proxy_.push_back(std::make_unique<SubsystemProxy>(
        faulty_.back().get(), &clock_, options_.proxy));
  }
}

SemanticWorld::~SemanticWorld() = default;

Status SemanticWorld::RegisterAll(TransactionalProcessScheduler* scheduler) {
  for (auto& proxy : proxy_) {
    TPM_RETURN_IF_ERROR(scheduler->RegisterSubsystem(proxy.get()));
  }
  return Status::OK();
}

bool SemanticWorld::AnyNegativeKvValue() const {
  for (const auto& [key, value] : tenant_.kv()->store().Snapshot()) {
    if (value < 0) return true;
  }
  return false;
}

}  // namespace tpm
