// The load generator and its bookkeeping: one producer thread submits a
// fixed amount of work — on an open-loop schedule or with a fixed number of
// outstanding processes — and, once the runtime is stopped, every
// submission is joined to its outcome and termination instant.

#ifndef TPMBENCH_SERVING_H_
#define TPMBENCH_SERVING_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/sharded_runtime.h"

namespace tpmbench {

/// One generated process: its definition, and how many scheduler
/// processes it becomes (a spanning process runs one slice per shard).
struct Work {
  const tpm::ProcessDef* def = nullptr;
  int slices = 1;
  /// Opaque tag for the workload's own correctness gates.
  int tag = 0;
};

struct LoadSpec {
  /// Open loop at `rate_per_s`, else a closed loop keeping `clients`
  /// processes outstanding (pinned processes only).
  bool open_loop = true;
  double rate_per_s = 0;
  int clients = 0;
  /// Leading submissions excluded from every timed figure.
  int64_t warmup = 0;
  int64_t timed = 0;
};

/// One submission, resolved to its shard and pid as soon as it is
/// admitted, so the run keeps no ticket (and no promise state) alive.
struct Submission {
  /// Open loop: the instant the submission was due. Closed loop: the
  /// instant the producer called Submit.
  int64_t scheduled_ns = 0;
  int64_t call_start_ns = 0;
  int64_t call_end_ns = 0;
  /// The pid, once admitted; 0 if refused or admission failed.
  int64_t pid = 0;
  /// The global serial number of a spanning process, else -1.
  int64_t gsn = -1;
  int32_t shard = -1;
  int32_t tag = 0;
};

struct ServingRun {
  std::vector<Submission> submissions;
  /// Refused submissions and failed admissions, and the first reason.
  int64_t refused = 0;
  std::string first_error;
  /// Producer-side samples taken every few submissions.
  std::vector<double> queue_depth_samples;
  /// Scheduler processes (slices) submitted and not yet terminated.
  std::vector<double> active_samples;
  tpm::Status drain_status = tpm::Status::OK();
};

/// Drives `spec` into a started runtime from the calling thread, then
/// drains. `next` gives the next generated process, called once per
/// submission in order (inputs come from the seed). The runtime must carry
/// `recorder` as an observer.
ServingRun Serve(tpm::ShardedRuntime* runtime, ProcessRecorder* recorder,
                 const LoadSpec& spec, const std::function<Work()>& next);

/// Outcome of the timed submissions, computed after the runtime stopped.
struct ServingOutcome {
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  /// Refused or erroring submissions plus processes that never terminated.
  int64_t failed = 0;
  int64_t spans = 0;
  int64_t spans_committed = 0;
  bool fifo_ok = true;
  std::string first_error;
  /// Per timed submission, in submission order; -1 where unavailable.
  std::vector<double> latency_us;
  std::vector<double> span_latency_us;
  /// Wall time from the first timed submission's scheduled instant to the
  /// last timed termination.
  double serving_s = 0;
  /// Per submission, warm-up included: whether it committed.
  std::vector<bool> committed_flags;
};

/// Joins submissions to outcomes. With a tracer, adds per-process spans
/// for every `sample_every`-th timed submission (none if 0).
ServingOutcome Analyze(tpm::ShardedRuntime* runtime,
                       const ProcessRecorder& recorder, const ServingRun& run,
                       const LoadSpec& spec, Tracer* tracer,
                       int64_t sample_every);

/// One block of served load: its spec, what the producer saw and the
/// outcome.
struct Block {
  LoadSpec spec;
  ServingRun run;
  ServingOutcome outcome;
};

/// Adds the serving end-to-end metrics and the shared metadata and gates.
/// commit_per_s is the median over the `throughput` blocks of each
/// block's commit rate, latency_p50_us the median over the `latency`
/// blocks of each block's median latency. The two may be the same blocks.
void ReportServing(const std::vector<Block>& throughput,
                   const std::vector<Block>& latency, Report* report);

/// Per-layer figures common to every serving workload: the runtime and
/// core spans, the sampled queue depth and active set of the throughput
/// blocks, Stats() ratios and the log's records/bytes per commit. Call
/// after Stop.
void ReportServingLayers(tpm::ShardedRuntime* runtime,
                         const std::vector<Block>& throughput,
                         const ProcessRecorder& recorder, Tracer* tracer,
                         Report* report);

}  // namespace tpmbench

#endif  // TPMBENCH_SERVING_H_
