// Shared plumbing of the process-runtime benchmark: wall-clock helpers,
// sample summaries, the metric report (human lines + the final JSON line),
// the in-memory span tracer and the runtime observer that timestamps every
// process.

#ifndef TPMBENCH_BENCH_UTIL_H_
#define TPMBENCH_BENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/sharded_runtime.h"

namespace tpmbench {

using Clock = std::chrono::steady_clock;

/// Shard workers of every runtime the benchmark starts.
constexpr int kShards = 2;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its span log (CSV).
  std::string trace_out;
  /// Scratch directory for file WALs (created and removed by the run).
  std::string work_dir = ".bench_build/runs";
  /// Multiplies every work size; the smoke check runs at a tiny scale.
  double scale = 1.0;
};

/// Nearest-rank quantile of an unsorted sample (copied, then sorted).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Metrics, metadata and correctness gates of one run. Print() writes one
/// human-readable line per entry and then, as the last line of standard
/// output, the result object the benchmark contract asks for.
class Report {
 public:
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// Records a correctness gate; a failed gate makes the run incorrect.
  void Gate(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }
  /// Value of an end-to-end metric, 0 if absent.
  double EndToEndValue(const std::string& name) const;
  /// Folds another run's gates and attempted/failed counts into this one.
  void MergeFrom(const Report& other);

  int64_t attempted = 0;
  int64_t failed = 0;

  void Print(bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::vector<std::string> failures_;
  int gates_ = 0;
};

/// In-memory span log of the traced run: one span per benchmark call into
/// a layer (name, start, end, parent), grouped by `request` — the
/// submission index of the process a span belongs to, or -1 for run-level
/// spans. Written out once, at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Returns the new span's id (0 when tracing is off).
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent = 0, int64_t request = -1);
  /// Spans of one name, as durations in microseconds.
  std::vector<double> DurationsUs(const std::string& name) const;
  double TotalSeconds(const std::string& name) const;
  size_t size() const { return spans_.size(); }
  bool Write(const std::string& path, const std::string& trace_id) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t id;
    int64_t parent;
    int64_t request;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Observer that stamps, per (shard, pid), the wall-clock instant of the
/// process's termination and outcome — and, when `trace` is on, of its
/// first and last forward activity commit. Callbacks arrive serialized on
/// shard worker threads; the tables may be read once the runtime is
/// stopped. terminated() and WaitForTerminations() are safe any time.
class ProcessRecorder : public tpm::RuntimeObserver {
 public:
  ProcessRecorder(int shards, size_t expected_per_shard, bool trace);

  void OnActivityCommitted(int shard, tpm::ProcessId pid,
                           tpm::ActivityId act, bool inverse) override;
  void OnInvocationFailed(int shard, tpm::ProcessId pid,
                          tpm::ActivityId act) override;
  void OnProcessTerminated(int shard, tpm::ProcessId pid,
                           tpm::ProcessOutcome outcome) override;

  struct Entry {
    int64_t first_commit_ns = -1;
    int64_t last_commit_ns = -1;
    int64_t terminated_ns = -1;
    tpm::ProcessOutcome outcome = tpm::ProcessOutcome::kActive;
  };
  /// Null if the process never terminated.
  const Entry* Find(int shard, tpm::ProcessId pid) const;

  int64_t terminated() const { return terminated_.load(); }
  /// Bytes of the benchmark's own per-process table, part of peak RSS.
  double TableBytes() const;
  int64_t failed_invocations() const { return failed_invocations_.load(); }
  /// Blocks until at least `count` terminations were observed.
  void WaitForTerminations(int64_t count);

 private:
  Entry& Slot(int shard, tpm::ProcessId pid);

  bool trace_;
  std::vector<std::vector<Entry>> entries_;
  std::atomic<int64_t> terminated_{0};
  std::atomic<int64_t> failed_invocations_{0};
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
};

/// Marks progress for the stall watchdog. Every process termination and
/// every finished set-up or restart calls it.
void Heartbeat();

/// Ends the run when no Heartbeat() arrives for `quiet_limit`, or when the
/// whole run exceeds `budget`. A runtime that stops terminating processes
/// blocks Submit, Drain and Stop forever, and one whose throughput
/// collapses would not finish in time, so the watchdog prints an
/// incorrect result naming the cause and exits the process.
class StallWatchdog {
 public:
  StallWatchdog(std::chrono::seconds quiet_limit, std::chrono::seconds budget);
  ~StallWatchdog();
  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

 private:
  void Watch();

  const int64_t quiet_limit_ns_;
  const int64_t deadline_ns_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace tpmbench

#endif  // TPMBENCH_BENCH_UTIL_H_
