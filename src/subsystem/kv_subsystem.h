#ifndef TPM_SUBSYSTEM_KV_SUBSYSTEM_H_
#define TPM_SUBSYSTEM_KV_SUBSYSTEM_H_

#include <map>
#include <memory>
#include <string>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "subsystem/health.h"
#include "subsystem/kv_store.h"
#include "subsystem/local_tx.h"
#include "subsystem/service.h"

namespace tpm {

/// A transactional subsystem as assumed by the paper (§2.3): it executes
/// service invocations as atomic local transactions, offers compensation
/// services, and supports the prepared state of a two-phase commit protocol
/// (needed for the deferred commit of non-compensatable activities,
/// Lemma 1).
class Subsystem {
 public:
  virtual ~Subsystem() = default;

  virtual SubsystemId id() const = 0;
  virtual const std::string& name() const = 0;
  virtual const ServiceRegistry& services() const = 0;

  /// Atomic invocation with immediate local commit. kAborted = the local
  /// transaction aborted (injected failure or body error); kUnavailable =
  /// blocked by a prepared transaction's locks — retry later.
  virtual Result<InvocationOutcome> Invoke(ServiceId service,
                                           const ServiceRequest& request) = 0;

  /// Atomic invocation left in the prepared state (2PC phase one).
  virtual Result<PreparedHandle> InvokePrepared(
      ServiceId service, const ServiceRequest& request) = 0;

  /// 2PC phase two.
  virtual Status CommitPrepared(TxId tx) = 0;
  virtual Status AbortPrepared(TxId tx) = 0;

  /// True iff invoking `service` now would block on prepared locks.
  virtual bool WouldBlock(ServiceId service) const = 0;

  /// Presumed abort: discards every prepared transaction. Called by the
  /// scheduler during crash recovery — prepared branches whose commit
  /// decision was never logged are rolled back.
  virtual Status AbortAllPrepared() = 0;

  /// Process-resolution hook: the scheduler reports every process reaching
  /// a terminal state (committed or aborted). Semantic subsystems use it to
  /// release per-process bookkeeping — e.g. the escrow method turns a
  /// process's unstable deposit credit into stable balance once the process
  /// can no longer compensate. Default: no-op (the KV subsystem keeps no
  /// per-process state).
  virtual void OnProcessResolved(ProcessId /*process*/, bool /*committed*/) {}

  /// Circuit-breaker state as seen by the scheduler's failure-domain layer.
  /// Plain subsystems are always healthy; SubsystemProxy overrides this
  /// with its breaker's state so the scheduler can park retriable
  /// activities and degrade to ◁-alternatives.
  virtual BreakerState breaker_state() const { return BreakerState::kClosed; }

  /// Monotone health-event counters (deadline failures, breaker trips) for
  /// stats aggregation; plain subsystems report zeros.
  virtual SubsystemHealthCounters health_counters() const { return {}; }

  /// Deterministic digest of all behavior-relevant subsystem state. Two
  /// subsystems fed the identical invocation stream report identical
  /// fingerprints, which is how the lockstep tests show a shard's stores
  /// end where a solo scheduler's do. Default 0: an opaque subsystem
  /// contributes nothing.
  virtual uint64_t StateFingerprint() const { return 0; }
};

/// Subsystem simulated over an in-memory KvStore, with failure injection
/// for modeling retriable behaviour (Def. 3: abort k times, then commit)
/// and pivot failures (Def. 4).
class KvSubsystem : public Subsystem {
 public:
  KvSubsystem(SubsystemId id, std::string name, uint64_t seed = 42);

  KvSubsystem(const KvSubsystem&) = delete;
  KvSubsystem& operator=(const KvSubsystem&) = delete;

  SubsystemId id() const override { return id_; }
  const std::string& name() const override { return name_; }
  const ServiceRegistry& services() const override { return registry_; }

  Status RegisterService(ServiceDef def);

  Result<InvocationOutcome> Invoke(ServiceId service,
                                   const ServiceRequest& request) override;
  Result<PreparedHandle> InvokePrepared(ServiceId service,
                                        const ServiceRequest& request) override;
  Status CommitPrepared(TxId tx) override;
  Status AbortPrepared(TxId tx) override;
  bool WouldBlock(ServiceId service) const override;
  Status AbortAllPrepared() override;
  uint64_t StateFingerprint() const override;

  /// The next `count` invocations of `service` abort (deterministic
  /// failure script; models Def. 3 for retriables and Def. 4 for pivots).
  void ScheduleFailures(ServiceId service, int count);

  /// Each invocation of `service` aborts with probability `p` (drawn from
  /// the subsystem's seeded RNG).
  void SetFailureProbability(ServiceId service, double p);

  /// Internal masking of transient failures: failed invocations are
  /// retried inside the subsystem per `policy` before an abort surfaces to
  /// the scheduler. Each internal retry consumes one scheduled/random
  /// failure, so a script of k failures with max_attempts > k commits on
  /// the first scheduler-visible invocation.
  void SetRetryPolicy(RetryPolicy policy) { retry_policy_ = policy; }

  /// Attaches the shared simulation clock: internal retry backoff then
  /// advances it (clamped by an active invocation deadline — a retry loop
  /// cannot wait past the caller's budget) instead of only charging the
  /// private backoff_ticks_waited counter. Null detaches.
  void SetClock(VirtualClock* clock) { clock_ = clock; }

  KvStore& store() { return store_; }
  const KvStore& store() const { return store_; }

  /// Invocation counters for experiments.
  int64_t invocations() const { return invocations_; }
  int64_t injected_aborts() const { return injected_aborts_; }
  /// Aborted attempts absorbed by the retry policy (never surfaced).
  int64_t internal_retries() const { return internal_retries_; }
  /// Total virtual backoff ticks the retry policy charged.
  int64_t backoff_ticks_waited() const { return backoff_ticks_waited_; }

 private:
  Status MaybeInjectFailure(ServiceId service);
  /// Runs MaybeInjectFailure under the retry policy: retries transient
  /// aborts internally (charging backoff) until an attempt passes or the
  /// attempt budget is exhausted.
  Status InjectFailureWithRetry(ServiceId service);

  SubsystemId id_;
  std::string name_;
  ServiceRegistry registry_;
  KvStore store_;
  LocalTxManager tx_manager_{&store_};
  std::map<ServiceId, int> scripted_failures_;
  std::map<ServiceId, double> failure_probability_;
  RetryPolicy retry_policy_;
  VirtualClock* clock_ = nullptr;
  Rng rng_;
  int64_t invocations_ = 0;
  int64_t injected_aborts_ = 0;
  int64_t internal_retries_ = 0;
  int64_t backoff_ticks_waited_ = 0;
};

}  // namespace tpm

#endif  // TPM_SUBSYSTEM_KV_SUBSYSTEM_H_
