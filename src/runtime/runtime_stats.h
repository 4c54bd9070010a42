#ifndef TPM_RUNTIME_RUNTIME_STATS_H_
#define TPM_RUNTIME_RUNTIME_STATS_H_

#include <cstdint>
#include <vector>

#include "core/scheduler_options.h"

namespace tpm {

/// Aggregated view over a sharded runtime: every shard scheduler's stats
/// verbatim, plus their fan-in (SchedulerStats::MergeFrom — counters sum,
/// virtual_time is the makespan maximum) and the front-end's own counters.
struct RuntimeStats {
  /// Indexed by shard.
  std::vector<SchedulerStats> per_shard;
  /// MergeFrom over all shards. With one shard this equals the shard's
  /// stats, which is what ties the sharded numbers back to a solo run.
  SchedulerStats merged;
  /// Submissions accepted into some shard's queue.
  int64_t submissions_accepted = 0;
  /// Submissions bounced by the kReject backpressure policy (full queue).
  int64_t submissions_rejected = 0;
  /// Lockstep tick rounds driven so far (0 in free-running mode).
  int64_t lockstep_rounds = 0;
  /// Cross-shard coordination agent counters: spanning processes begun
  /// (SBEGIN logged) and terminally decided either way. The per-shard 2PC
  /// view (votes, force-commits) lives in the merged scheduler counters
  /// (spanning_admitted / cross_shard_prepares / in_doubt_resolved).
  int64_t spans_begun = 0;
  int64_t spans_committed = 0;
  int64_t spans_aborted = 0;
  /// Producer-side submission-queue depth per shard (approximate by
  /// nature — workers drain concurrently).
  std::vector<size_t> queue_depths;
};

}  // namespace tpm

#endif  // TPM_RUNTIME_RUNTIME_STATS_H_
