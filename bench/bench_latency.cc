// E23 — wall-clock submit->commit latency under open-loop load. One
// producer thread per tenant drives short escrow-increment processes
// (fully commuting within a tenant, so the scheduler's admission/runtime
// overhead — not conflict resolution — is what the numbers measure) into
// the free-running ShardedRuntime; shard schedulers run with
// reclaim_terminated so millions of processes execute in bounded memory.
// The harness measures:
//
//   1. saturation commit throughput (producers submit as fast as the
//      bounded FIFO queues admit them), then
//   2. open-loop latency at 70% of that throughput: each producer submits
//      on a fixed schedule and the latency of a process is measured from
//      its SCHEDULED submit time to the observer's termination callback —
//      queue backpressure therefore counts against latency instead of
//      being silently absorbed (no coordinated omission).
//
// Per-process submit times are joined to terminations through the
// SubmitTicket pid futures, and the FIFO admission contract is asserted on
// the side: a producer that is alone on its shard must see strictly
// increasing pids. The run fails (nonzero exit) if a phase fails or the
// FIFO contract is violated. `--json <path>` writes BENCH_latency.json;
// `--processes N` sizes each phase (default 250000 per phase).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_writer.h"
#include "common/str_util.h"
#include "runtime/sharded_runtime.h"
#include "subsystem/escrow_subsystem.h"

using namespace tpm;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Tenant {
  std::unique_ptr<EscrowSubsystem> escrow;
  std::unique_ptr<ProcessDef> def;
};

// A tenant: one escrow counter with commuting inc services and the
// two-activity chain  inc (compensatable, dec compensation) -> inc (pivot).
Tenant MakeTenant(int t) {
  Tenant tenant;
  tenant.escrow = std::make_unique<EscrowSubsystem>(SubsystemId(100 + t),
                                                    StrCat("escrow", t));
  const std::string counter = StrCat("c", t);
  const ServiceId inc_a(1000 * (t + 1) + 1);
  const ServiceId dec_a(1000 * (t + 1) + 2);
  const ServiceId inc_b(1000 * (t + 1) + 3);
  Status s = tenant.escrow->CreateCounter(counter, 0);
  if (s.ok()) s = tenant.escrow->RegisterIncService(inc_a, counter);
  if (s.ok()) s = tenant.escrow->RegisterDecService(dec_a, counter);
  if (s.ok()) s = tenant.escrow->RegisterIncService(inc_b, counter);
  if (!s.ok()) return {};
  tenant.def = std::make_unique<ProcessDef>(StrCat("pay_t", t));
  ActivityId reserve = tenant.def->AddActivity(
      "reserve", ActivityKind::kCompensatable, inc_a, dec_a);
  ActivityId settle =
      tenant.def->AddActivity("settle", ActivityKind::kPivot, inc_b);
  if (!tenant.def->AddEdge(reserve, settle).ok()) return {};
  if (!tenant.def->Validate().ok()) return {};
  return tenant;
}

/// Records the wall-clock termination instant of every process, per shard,
/// dense by pid (pids are per-shard sequential — the same contract the
/// schedulers' runtime tables rely on).
class TerminationRecorder : public RuntimeObserver {
 public:
  explicit TerminationRecorder(int shards) : terminated_ns_(shards) {}

  void OnProcessTerminated(int shard, ProcessId pid,
                           ProcessOutcome outcome) override {
    std::vector<int64_t>& row = terminated_ns_[shard];
    const size_t slot = static_cast<size_t>(pid.value() - 1);
    if (slot >= row.size()) row.resize(slot + 1, -1);
    row[slot] = NowNs();
    if (outcome == ProcessOutcome::kCommitted) {
      committed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      aborted_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  int64_t TerminatedNs(int shard, ProcessId pid) const {
    const std::vector<int64_t>& row = terminated_ns_[shard];
    const size_t slot = static_cast<size_t>(pid.value() - 1);
    return slot < row.size() ? row[slot] : -1;
  }

  int64_t committed() const { return committed_.load(); }
  int64_t aborted() const { return aborted_.load(); }

 private:
  std::vector<std::vector<int64_t>> terminated_ns_;
  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> aborted_{0};
};

struct PhaseResult {
  bool ok = true;
  std::string error;
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  double seconds = 0.0;
  double throughput = 0.0;  // committed per second
  bool fifo_pids = true;    // sole-producer shards saw increasing pids
  // Latency phase only (ns).
  std::vector<int64_t> latencies_ns;
};

struct Percentiles {
  double p50 = 0, p99 = 0, p999 = 0, mean = 0, max = 0;
};

Percentiles Summarize(std::vector<int64_t>* ns) {
  Percentiles out;
  if (ns->empty()) return out;
  std::sort(ns->begin(), ns->end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * (ns->size() - 1));
    return static_cast<double>((*ns)[i]);
  };
  out.p50 = at(0.50);
  out.p99 = at(0.99);
  out.p999 = at(0.999);
  out.max = static_cast<double>(ns->back());
  double sum = 0;
  for (int64_t v : *ns) sum += static_cast<double>(v);
  out.mean = sum / static_cast<double>(ns->size());
  return out;
}

/// One measured run: `total` processes spread over the tenants' producer
/// threads. rate_per_s <= 0 means saturation (submit as fast as the
/// blocking queues allow); otherwise each producer paces submissions on a
/// fixed open-loop schedule and latency is measured from the scheduled
/// instant.
PhaseResult RunPhase(int tenants, int64_t total, double rate_per_s) {
  PhaseResult result;
  std::vector<Tenant> world;
  for (int t = 0; t < tenants; ++t) {
    world.push_back(MakeTenant(t));
    if (world.back().def == nullptr) {
      result.ok = false;
      result.error = "tenant construction failed";
      return result;
    }
  }

  ShardedRuntimeOptions options;
  options.num_shards = tenants;
  options.mode = TickMode::kFreeRunning;
  options.log_mode = ShardLogMode::kNone;
  options.queue_capacity = 4096;
  options.backpressure = BackpressurePolicy::kBlock;
  options.scheduler.reclaim_terminated = true;
  ShardedRuntime runtime(options);
  TerminationRecorder recorder(tenants);
  Status status = runtime.AddObserver(&recorder);
  for (int t = 0; status.ok() && t < tenants; ++t) {
    status = runtime.AddSubsystem(world[t].escrow.get());
  }
  if (status.ok()) status = runtime.Start();
  if (!status.ok()) {
    result.ok = false;
    result.error = status.ToString();
    return result;
  }

  struct ProducerLog {
    std::vector<SubmitTicket> tickets;
    std::vector<int64_t> submit_ns;
    bool ok = true;
    std::string error;
  };
  std::vector<ProducerLog> logs(tenants);
  const int64_t per_producer = total / tenants;
  const double producer_rate = rate_per_s > 0 ? rate_per_s / tenants : 0.0;

  const auto begin = Clock::now();
  std::vector<std::thread> producers;
  producers.reserve(tenants);
  for (int t = 0; t < tenants; ++t) {
    producers.emplace_back([&, t] {
      ProducerLog& log = logs[t];
      log.tickets.reserve(per_producer);
      log.submit_ns.reserve(per_producer);
      const ProcessDef* def = world[t].def.get();
      const auto start = Clock::now();
      for (int64_t i = 0; i < per_producer; ++i) {
        int64_t scheduled_ns;
        if (producer_rate > 0) {
          const auto due =
              start + std::chrono::nanoseconds(static_cast<int64_t>(
                          1e9 * static_cast<double>(i) / producer_rate));
          std::this_thread::sleep_until(due);
          scheduled_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             due.time_since_epoch())
                             .count();
        } else {
          scheduled_ns = NowNs();
        }
        Result<SubmitTicket> ticket = runtime.Submit(def);
        if (!ticket.ok()) {
          log.ok = false;
          log.error = ticket.status().ToString();
          return;
        }
        log.tickets.push_back(std::move(*ticket));
        log.submit_ns.push_back(scheduled_ns);
      }
    });
  }
  for (std::thread& p : producers) p.join();
  status = runtime.Drain();
  const auto end = Clock::now();
  if (status.ok()) status = runtime.Stop();
  if (!status.ok()) {
    result.ok = false;
    result.error = status.ToString();
    return result;
  }
  for (const ProducerLog& log : logs) {
    if (!log.ok) {
      result.ok = false;
      result.error = log.error;
      return result;
    }
  }

  // Join submit times to termination times via the admission futures (all
  // resolved after Drain), and assert the FIFO contract where it is
  // observable: a producer alone on its shard must see ascending pids.
  std::map<int, int> producers_per_shard;
  for (const ProducerLog& log : logs) {
    if (!log.tickets.empty()) producers_per_shard[log.tickets[0].shard]++;
  }
  result.latencies_ns.reserve(rate_per_s > 0 ? total : 0);
  for (ProducerLog& log : logs) {
    int64_t last_pid = 0;
    const bool sole = !log.tickets.empty() &&
                      producers_per_shard[log.tickets[0].shard] == 1;
    for (size_t i = 0; i < log.tickets.size(); ++i) {
      SubmitTicket& ticket = log.tickets[i];
      Result<ProcessId> pid = ticket.Await();
      if (!pid.ok()) {
        result.ok = false;
        result.error = pid.status().ToString();
        return result;
      }
      if (sole) {
        if (pid->value() <= last_pid) result.fifo_pids = false;
        last_pid = pid->value();
      }
      if (rate_per_s > 0) {
        const int64_t done = recorder.TerminatedNs(ticket.shard, *pid);
        if (done >= 0 && done >= log.submit_ns[i]) {
          result.latencies_ns.push_back(done - log.submit_ns[i]);
        }
      }
    }
  }

  result.submitted = static_cast<int64_t>(per_producer) * tenants;
  result.committed = recorder.committed();
  result.aborted = recorder.aborted();
  result.seconds = std::chrono::duration<double>(end - begin).count();
  result.throughput =
      result.seconds > 0 ? result.committed / result.seconds : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int64_t processes = 250000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--processes" && i + 1 < argc) {
      processes = std::stoll(argv[++i]);
    }
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  // Producers and shard workers share the machine; half the threads each
  // side keeps the open-loop schedule honest.
  const int tenants = std::max(1, std::min(4, hw / 2));

  std::cout << "E23 wall-clock submit->commit latency (open-loop, " << tenants
            << " tenants/shards, " << processes
            << " processes per phase, hw threads = " << hw << ")\n\n";

  PhaseResult saturation = RunPhase(tenants, processes, -1.0);
  const double rate = 0.7 * saturation.throughput;
  PhaseResult paced;
  Percentiles latency;  // over paced.latencies_ns
  if (saturation.ok && rate > 0) {
    paced = RunPhase(tenants, processes, rate);
    latency = Summarize(&paced.latencies_ns);
  } else {
    paced.ok = false;
    paced.error = saturation.ok ? "saturation throughput was zero"
                                : "saturation phase failed";
  }
  std::cout << "  saturation: " << std::fixed << std::setprecision(0)
            << saturation.throughput << " commit/s (" << saturation.committed
            << "/" << saturation.submitted << " committed, "
            << saturation.aborted << " aborted"
            << (saturation.ok ? "" : StrCat(", FAILED: ", saturation.error))
            << ")\n";
  if (paced.ok) {
    std::cout << "  open-loop @" << std::setprecision(0) << rate
              << "/s: p50 " << std::setprecision(1) << latency.p50 / 1e3
              << "us  p99 " << latency.p99 / 1e3 << "us  p99.9 "
              << latency.p999 / 1e3 << "us  mean " << latency.mean / 1e3
              << "us  max " << latency.max / 1e6 << "ms  ("
              << paced.latencies_ns.size() << " samples, fifo="
              << (paced.fifo_pids ? "ok" : "VIOLATED") << ")\n";
  } else {
    std::cout << "  open-loop phase FAILED: " << paced.error << "\n";
  }
  const bool pass = saturation.ok && paced.ok && paced.fifo_pids;
  std::cout << "\n  headline: every phase ok and FIFO pids ascending "
            << (pass ? "[OK]" : "[FAIL]") << "\n";

  std::ostringstream json;
  bench::JsonWriter writer(json);
  writer.BeginObject();
  writer.Field("benchmark",
               StrCat("bench_latency E23 open-loop submit->commit wall-clock "
                      "latency (",
                      tenants, " tenants, ", processes,
                      " processes per phase)"));
  writer.Field(
      "methodology",
      "(1) saturation phase — one producer thread per tenant submits "
      "commuting escrow processes as fast as the bounded FIFO queues "
      "admit, throughput = committed/seconds; (2) open-loop phase at 70% "
      "of that throughput — submissions follow a fixed schedule, latency = "
      "termination instant minus SCHEDULED submit instant (backpressure "
      "counts, no coordinated omission); submit and termination joined via "
      "admission-ticket pid futures; shard schedulers run with "
      "reclaim_terminated (bounded memory); FIFO admission asserted via "
      "ascending pids on sole-producer shards");
  writer.Field("hardware_threads", hw);
  writer.Field("tenants", tenants);
  writer.Field("processes_per_phase", processes);
  writer.BeginObject("saturation");
  writer.Field("ok", saturation.ok);
  if (!saturation.ok) writer.Field("error", saturation.error);
  writer.Field("submitted", saturation.submitted);
  writer.Field("committed", saturation.committed);
  writer.Field("aborted", saturation.aborted);
  writer.Field("seconds", saturation.seconds, 6);
  writer.Field("commit_throughput_per_s", saturation.throughput, 1);
  writer.EndObject();
  writer.BeginObject("open_loop");
  writer.Field("ok", paced.ok);
  if (!paced.ok) writer.Field("error", paced.error);
  writer.Field("target_rate_per_s", rate, 1);
  writer.Field("submitted", paced.submitted);
  writer.Field("committed", paced.committed);
  writer.Field("aborted", paced.aborted);
  writer.Field("samples", static_cast<int64_t>(paced.latencies_ns.size()));
  writer.Field("fifo_pids_ascending", paced.fifo_pids);
  writer.Field("p50_us", latency.p50 / 1e3, 1);
  writer.Field("p99_us", latency.p99 / 1e3, 1);
  writer.Field("p999_us", latency.p999 / 1e3, 1);
  writer.Field("mean_us", latency.mean / 1e3, 1);
  writer.Field("max_us", latency.max / 1e3, 1);
  writer.EndObject();
  writer.Field("pass", pass);
  writer.EndObject();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::cout << "\n  wrote " << json_path << "\n";
  }
  return pass ? 0 : 1;
}
