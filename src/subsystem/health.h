#ifndef TPM_SUBSYSTEM_HEALTH_H_
#define TPM_SUBSYSTEM_HEALTH_H_

#include <cstdint>

namespace tpm {

/// Circuit-breaker state of a subsystem as seen by the scheduler's
/// failure-domain layer (SubsystemProxy). Plain subsystems are always
/// kClosed.
///
///   kClosed   — healthy: invocations flow through, outcomes are sampled
///               into the failure window.
///   kOpen     — tripped: the failure rate over the sliding window crossed
///               the threshold. Invocations are rejected without reaching
///               the subsystem until the cooldown elapses; the scheduler
///               parks retriable activities instead of burning Def. 3
///               retries, and degrades to ◁-alternatives that avoid the
///               sick subsystem.
///   kHalfOpen — cooldown elapsed: the next invocation is a probe. Success
///               closes the breaker, failure re-opens it for another
///               cooldown.
enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Monotone health-event counters a subsystem reports for stats
/// aggregation; plain subsystems report zeros.
struct SubsystemHealthCounters {
  /// Invocations that failed because the deadline budget was exhausted
  /// (reported to the scheduler with retriable semantics, Def. 3).
  int64_t deadline_failures = 0;
  /// Transitions into the open state.
  int64_t breaker_trips = 0;
  /// Half-open probe invocations attempted.
  int64_t probe_invocations = 0;
  /// Invocations rejected while the breaker was open (a scheduler that
  /// parks correctly keeps this at zero).
  int64_t rejected_while_open = 0;
};

}  // namespace tpm

#endif  // TPM_SUBSYSTEM_HEALTH_H_
