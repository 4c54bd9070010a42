#ifndef TPM_CORE_SCHEDULER_OPTIONS_H_
#define TPM_CORE_SCHEDULER_OPTIONS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>

#include "common/fingerprint.h"
#include "common/ids.h"

namespace tpm {

class VirtualClock;

/// Admission protocol run by the scheduler.
enum class AdmissionProtocol {
  /// The paper's protocol: serialization-graph testing plus the Lemma 1
  /// deferral of non-compensatable activities, guaranteeing every emitted
  /// prefix is reducible (PRED).
  kPred,
  /// One process at a time; trivially correct, no inter-process
  /// parallelism. Baseline.
  kSerial,
  /// Strict two-phase locking at service granularity: an activity waits
  /// until no conflicting service lock is held by another active process;
  /// locks are released at process termination. Correct but pessimistic —
  /// it forbids the compensatable-phase overlap and the quasi-commit
  /// concurrency PRED allows. Baseline.
  kTwoPhaseLocking,
  /// Classical concurrency control only (serializability, no unified
  /// recovery reasoning): non-compensatable activities are never deferred.
  /// Produces the irrecoverable interleavings of §2.2/Figure 1; used as
  /// the negative control.
  kUnsafe,
};

/// How the Lemma 1 deferral of non-compensatable activities is realized.
enum class DeferMode {
  /// The activity is not invoked until the blockers commit.
  kDelayExecution,
  /// The activity is executed immediately but left in the prepared state of
  /// its subsystem (2PC phase one); all prepared branches of the process
  /// are committed atomically once the blockers are gone (Lemma 1's
  /// "deferred commit ... performed atomically by exploiting a two phase
  /// commit protocol"). Overlaps activity execution with the wait.
  kPrepared2PC,
};

/// Toggles for the individual guard mechanisms of the kPred protocol —
/// used by the ablation experiments (each knob corresponds to one design
/// element derived from the paper; disabling it shows which anomalies that
/// element prevents). All default to on; production use should not touch
/// these.
struct PredAblation {
  /// Lemma 1: defer non-compensatable activities behind conflicting active
  /// predecessors.
  bool lemma1_deferral = true;
  /// Defer an activity when a conflicting active process will forward-touch
  /// the service again (prevents doomed antisymmetric interleavings).
  bool crossing_prevention = true;
  /// Lemma 2 / §2.2: gate compensations behind dependents' undo, with
  /// cascading aborts.
  bool compensation_gate = true;
  /// §3.5: pre-order frozen non-compensatables before potential completion
  /// conflicts (virtual serialization edges) and check forward recovery
  /// steps against them.
  bool completion_preorder = true;
};

struct SchedulerOptions {
  AdmissionProtocol protocol = AdmissionProtocol::kPred;
  DeferMode defer_mode = DeferMode::kDelayExecution;
  PredAblation ablation;
  /// Example 10: allow an activity of P_j conflicting with an earlier
  /// activity of an active P_i when P_i is in F-REC and none of P_i's
  /// remaining or completion activities can conflict with P_j.
  bool quasi_commit_optimization = false;
  /// Re-check PRED on the emitted history after every event (O(n^4) —
  /// tests/small workloads only).
  bool certify_prefixes = false;
  /// Virtual-time cost model: how many clock ticks an invocation of each
  /// service occupies its process (default 1 for unlisted services). The
  /// scheduler's clock advances one tick per pass; a process busy with a
  /// long-running activity skips its turns, so concurrency shows up as
  /// makespan (stats.virtual_time) < sum of durations.
  std::map<ServiceId, int64_t> service_durations;
  /// Congestion control: at most this many processes execute concurrently;
  /// further submissions queue until a slot frees (0 = unlimited). Under
  /// extreme contention a small level avoids the abort storms optimistic
  /// scheduling is prone to (experiment E12c).
  int max_concurrent_processes = 0;
  /// Shared simulation time base. When set, the scheduler advances this
  /// clock one tick per pass instead of a private counter, composing with
  /// subsystem-side time consumers (injected latency, retry backoff,
  /// deadlines, breaker cooldowns). Null = scheduler-private clock,
  /// behaviour identical to before. The clock must outlive the scheduler.
  VirtualClock* clock = nullptr;
  /// Operation-level commutativity (ADT conflict tables): when true
  /// (default), op-kind pairs declared commuting by the registered
  /// subsystems downgrade the conservative read/write-derived service
  /// conflicts (ConflictSpec's op layer). When false, the scheduler sees
  /// only the read/write modeling of the same services — the ablation the
  /// semantic-vs-read/write experiment (bench_semantic) flips.
  bool use_op_commutativity = true;
  /// How long a retriable activity may stay parked behind an open circuit
  /// breaker before it is treated as a failed invocation (alternative path
  /// or abort — bounds termination under unrepaired outages). 0 = park
  /// indefinitely (termination then relies on the outage being repaired).
  int64_t park_timeout_ticks = 0;
  /// Bounded-memory mode for long-running / high-throughput schedulers
  /// (the latency bench): once a terminated process's serialization-graph
  /// footprint has been pruned, its runtime object is recycled into a pool
  /// (reused by later submissions without reallocating its containers) and
  /// its history events are compacted away at epoch boundaries — the start
  /// of the next Submit or Step. Consequences, all opt-in:
  /// OutcomeOf answers from a dense outcome table, history() only covers
  /// processes not yet reclaimed, latencies() stays empty (use an observer
  /// or stats()), and per-process Submit dependencies, certify_prefixes and
  /// Checkpoint/Recover are unsupported (rejected / would see a truncated
  /// log picture). Off by default: behaviour and history are then
  /// bit-identical to earlier versions.
  bool reclaim_terminated = false;
};

struct SchedulerStats {
  int64_t steps = 0;
  /// Virtual clock at the end of the run (== steps unless a cost model
  /// makes activities span multiple ticks — then it is the makespan).
  int64_t virtual_time = 0;
  int64_t activities_committed = 0;
  int64_t failed_invocations = 0;
  int64_t compensations = 0;
  int64_t deferrals = 0;
  int64_t blocked_by_locks = 0;
  int64_t alternatives_taken = 0;
  int64_t processes_committed = 0;
  int64_t processes_aborted = 0;
  int64_t deadlock_victims = 0;
  int64_t prepared_branches = 0;
  int64_t quasi_commit_admissions = 0;
  /// Processes aborted because a compensation of another process
  /// invalidated data they had consumed (§2.2: the production process must
  /// be compensated when the BOM it read is invalidated).
  int64_t cascading_aborts = 0;
  /// Cascading aborts that hit a process already in F-REC — its pivot had
  /// committed, so the inconsistency cannot be undone (only possible under
  /// kUnsafe; the Lemma 1 deferral prevents it).
  int64_t irrecoverable_cascades = 0;
  /// Commits delayed to enforce the commit order of Def. 11 clause 1.
  int64_t commit_waits = 0;
  /// Retriable activities / forward recovery steps executed although they
  /// close a serialization cycle whose other participants have all
  /// terminated: guaranteed termination (liveness) takes precedence over
  /// formal prefix-reducibility in these corner cases, which only arise in
  /// extreme-contention abort storms.
  int64_t forced_executions = 0;
  /// kUnsafe only: prefixes detected non-reducible when certifying.
  int64_t certified_violations = 0;
  /// Log records skipped during Recover because they did not apply to the
  /// reconstructed state (duplicate ACT/COMP from a superseded write-ahead
  /// intention, records of processes a compaction already dropped). A
  /// crash can legitimately leave such records; recovery tolerates them
  /// instead of failing, but counts them for observability.
  int64_t recovered_log_anomalies = 0;
  /// Failure-domain layer (subsystem deadlines + circuit breakers):
  /// breaker open-transitions across all registered subsystems.
  int64_t breaker_trips = 0;
  /// Invocations that failed because their deadline budget was exhausted.
  int64_t deadline_failures = 0;
  /// Activities parked behind an open breaker instead of retrying, and
  /// parked activities that later resumed (breaker half-opened/closed).
  int64_t parked_activities = 0;
  int64_t resumed_activities = 0;
  /// Proactive ◁-switches to an alternative group avoiding a subsystem
  /// with an open breaker (outage-aware graceful degradation).
  int64_t degraded_switches = 0;
  /// Cross-shard layer: sub-processes of spanning processes admitted on
  /// this scheduler with the held-commit (distributed 2PC participant)
  /// protocol.
  int64_t spanning_admitted = 0;
  /// Durable "prepared" votes this scheduler cast as a 2PC participant —
  /// one per held sub-process reaching its vote point (Lemma 1 generalized
  /// so a shard is a participant).
  int64_t cross_shard_prepares = 0;
  /// In-doubt held sub-processes force-committed during Recover because
  /// the coordinator log carried a durable commit decision.
  int64_t in_doubt_resolved = 0;

  /// Aggregates another scheduler's stats into this one — the fan-in the
  /// sharded runtime uses to merge per-shard stats. Every counter is
  /// additive except virtual_time, which is a makespan and therefore
  /// merges as the maximum over the shards' clocks (with one shard this is
  /// the identity, so merged single-shard stats equal the solo run's).
  void MergeFrom(const SchedulerStats& other);

  /// FNV-1a digest of every counter's absolute value, in table order —
  /// what the lockstep and determinism tests compare runs by.
  uint64_t Fingerprint() const;
};

/// The counter table: every SchedulerStats field, in fingerprint order.
/// MergeFrom, operator== and Fingerprint all walk it, so a new counter
/// is a field plus one entry here (the checks below catch a field left out
/// or listed twice).
inline constexpr int64_t SchedulerStats::* kSchedulerStatsCounters[] = {
    &SchedulerStats::steps,
    &SchedulerStats::virtual_time,
    &SchedulerStats::activities_committed,
    &SchedulerStats::failed_invocations,
    &SchedulerStats::compensations,
    &SchedulerStats::deferrals,
    &SchedulerStats::blocked_by_locks,
    &SchedulerStats::alternatives_taken,
    &SchedulerStats::processes_committed,
    &SchedulerStats::processes_aborted,
    &SchedulerStats::deadlock_victims,
    &SchedulerStats::prepared_branches,
    &SchedulerStats::quasi_commit_admissions,
    &SchedulerStats::cascading_aborts,
    &SchedulerStats::irrecoverable_cascades,
    &SchedulerStats::commit_waits,
    &SchedulerStats::forced_executions,
    &SchedulerStats::certified_violations,
    &SchedulerStats::recovered_log_anomalies,
    &SchedulerStats::breaker_trips,
    &SchedulerStats::deadline_failures,
    &SchedulerStats::parked_activities,
    &SchedulerStats::resumed_activities,
    &SchedulerStats::degraded_switches,
    &SchedulerStats::spanning_admitted,
    &SchedulerStats::cross_shard_prepares,
    &SchedulerStats::in_doubt_resolved,
};
static_assert(sizeof(SchedulerStats) ==
                  sizeof(int64_t) * std::size(kSchedulerStatsCounters),
              "every SchedulerStats field must be in kSchedulerStatsCounters");
static_assert(
    [] {
      for (size_t i = 0; i < std::size(kSchedulerStatsCounters); ++i) {
        for (size_t j = i + 1; j < std::size(kSchedulerStatsCounters); ++j) {
          if (kSchedulerStatsCounters[i] == kSchedulerStatsCounters[j]) {
            return false;
          }
        }
      }
      return true;
    }(),
    "kSchedulerStatsCounters lists a field twice");

inline void SchedulerStats::MergeFrom(const SchedulerStats& other) {
  for (int64_t SchedulerStats::*counter : kSchedulerStatsCounters) {
    if (counter == &SchedulerStats::virtual_time) {
      virtual_time = std::max(virtual_time, other.virtual_time);
    } else {
      this->*counter += other.*counter;
    }
  }
}

inline bool operator==(const SchedulerStats& a, const SchedulerStats& b) {
  for (int64_t SchedulerStats::*counter : kSchedulerStatsCounters) {
    if (a.*counter != b.*counter) return false;
  }
  return true;
}

inline uint64_t SchedulerStats::Fingerprint() const {
  uint64_t h = kFnv1aOffsetBasis;
  for (int64_t SchedulerStats::*counter : kSchedulerStatsCounters) {
    h = Fnv1aInt(h, static_cast<uint64_t>(this->*counter));
  }
  return h;
}

}  // namespace tpm

#endif  // TPM_CORE_SCHEDULER_OPTIONS_H_
