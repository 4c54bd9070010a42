#ifndef TPM_TESTING_FAULTY_SUBSYSTEM_H_
#define TPM_TESTING_FAULTY_SUBSYSTEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/virtual_clock.h"
#include "log/storage_backend.h"
#include "subsystem/kv_subsystem.h"

namespace tpm {
namespace testing {

/// Deterministic seeded fault model applied by FaultySubsystem to every
/// first-phase invocation.
struct FaultProfile {
  /// Probability that an invocation aborts transiently (Def. 3 shape:
  /// independent per attempt, so it commits after finitely many retries
  /// with probability 1).
  double transient_abort_probability = 0.0;
  /// Base transport/queueing latency charged to the shared clock before
  /// the local transaction runs.
  int64_t latency_ticks = 0;
  /// With this probability an invocation additionally stalls for
  /// slow_latency_ticks (a slow node / GC pause / queue spike).
  double slow_probability = 0.0;
  int64_t slow_latency_ticks = 0;
};

/// Decorator wrapping any Subsystem with a deterministic, seeded fault
/// model on the shared VirtualClock: transient aborts, injected latency
/// ticks, and repairable outage windows. All injected waiting happens
/// *before* the inner invocation, so when a cooperative deadline (set by
/// SubsystemProxy) expires, the invocation aborts without the local
/// transaction ever running — timeouts keep clean retriable semantics.
///
/// Faults also surface as FaultInjector crash-point sites
/// ("subsystem/invoke", "subsystem/prepare", "subsystem/commit") so one
/// injector can arm WAL and subsystem faults in the same run: an armed hit
/// at an invoke/prepare site aborts that invocation; at the commit site it
/// makes the 2PC phase-two decision call fail once with kUnavailable,
/// leaving the branch in doubt for the coordinator to resolve.
///
/// Outages block only first-phase invocations (Invoke / InvokePrepared).
/// Phase two passes through: the prepared state is durable in the
/// participant and decision messages are assumed to be retried below this
/// simulation's abstraction, so a decided branch always resolves.
class FaultySubsystem : public Subsystem {
 public:
  FaultySubsystem(Subsystem* inner, VirtualClock* clock, FaultProfile profile,
                  uint64_t seed);

  FaultySubsystem(const FaultySubsystem&) = delete;
  FaultySubsystem& operator=(const FaultySubsystem&) = delete;

  /// Replaces the fault profile (experiments dial severity up and down).
  void set_profile(const FaultProfile& profile) { profile_ = profile; }
  const FaultProfile& profile() const { return profile_; }

  /// Schedules a repairable outage over [start, end) on the shared clock.
  void AddOutage(int64_t start, int64_t end) {
    outages_.push_back(Outage{start, end});
  }
  bool InOutage(int64_t now) const {
    for (const Outage& o : outages_) {
      if (now >= o.start && now < o.end) return true;
    }
    return false;
  }

  /// Registers the crash-point listener (a tpm::testing::FaultInjector)
  /// consulted at the subsystem/* sites; null detaches.
  void SetCrashPointListener(CrashPointListener* listener) {
    listener_ = listener;
  }

  SubsystemId id() const override { return inner_->id(); }
  const std::string& name() const override { return inner_->name(); }
  const ServiceRegistry& services() const override {
    return inner_->services();
  }

  Result<InvocationOutcome> Invoke(ServiceId service,
                                   const ServiceRequest& request) override;
  Result<PreparedHandle> InvokePrepared(ServiceId service,
                                        const ServiceRequest& request) override;
  Status CommitPrepared(TxId tx) override;
  Status AbortPrepared(TxId tx) override { return inner_->AbortPrepared(tx); }
  bool WouldBlock(ServiceId service) const override {
    return inner_->WouldBlock(service);
  }
  Status AbortAllPrepared() override { return inner_->AbortAllPrepared(); }
  void OnProcessResolved(ProcessId process, bool committed) override {
    inner_->OnProcessResolved(process, committed);
  }

  Subsystem* inner() { return inner_; }
  int64_t transient_aborts() const { return transient_aborts_; }
  int64_t outage_rejections() const { return outage_rejections_; }
  int64_t injected_site_faults() const { return injected_site_faults_; }
  int64_t attempted_invocations() const { return attempted_invocations_; }

 private:
  struct Outage {
    int64_t start;
    int64_t end;
  };

  /// Runs the fault model; non-OK means the invocation fails without
  /// reaching the inner subsystem.
  Status InjectBeforeInvoke(const char* site);

  Subsystem* inner_;
  VirtualClock* clock_;
  FaultProfile profile_;
  Rng rng_;
  std::vector<Outage> outages_;
  CrashPointListener* listener_ = nullptr;
  int64_t transient_aborts_ = 0;
  int64_t outage_rejections_ = 0;
  int64_t injected_site_faults_ = 0;
  int64_t attempted_invocations_ = 0;
};

}  // namespace testing
}  // namespace tpm

#endif  // TPM_TESTING_FAULTY_SUBSYSTEM_H_
