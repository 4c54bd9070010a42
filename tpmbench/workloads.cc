#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "drills.h"
#include "serving.h"
#include "worlds.h"

namespace tpmbench {

namespace {

// pay_open: offered rate and the share of spanning payments.
constexpr int kPayTenants = 2;
constexpr double kPayOpenRate = 20000;
constexpr double kPaySpanShare = 0.02;
// Every workload runs in kRounds rounds. A round times set-ups, serves a
// throughput block and a latency block on the serving runtime, and runs
// crash drills. Each end-to-end figure is a median over samples from all
// rounds, so a spell of a slow shared host moves only the rounds it falls
// in rather than a whole figure.
constexpr int kRounds = 10;
// The throughput block keeps several processes outstanding and gives
// commit_per_s; the latency block keeps one outstanding, so latency_p50_us
// is the hand-off and execution path itself rather than the wait behind a
// queue the benchmark keeps full. Counts are per second of --seconds over
// the whole run, sized to keep a run well inside its time limit; they are
// not meant to fill --seconds.
constexpr int kLatencyClients = 1;
constexpr int kPayClients = 32;
constexpr double kPayClosedPerSecond = 40000;
constexpr double kPayDurablePerSecond = 3000;
constexpr double kPayLatencyPerSecond = 2000;
constexpr double kPayDurableLatencyPerSecond = 200;
// orders_closed: catalogue variants per shape, outstanding processes, and
// processes per second of --seconds. With 8 or more outstanding the order
// world's throughput decays over a run and can collapse (README.md,
// "Findings"); orders_contended keeps 32 to reproduce that.
constexpr int kOrderTenants = 4;
constexpr int kOrderVariants = 128;
constexpr int kOrderClients = 4;
constexpr int kOrderContendedClients = 32;
constexpr double kOrdersPerSecond = 30000;
constexpr double kOrdersLatencyPerSecond = 4000;
// The order world the crash drills crash: a small catalogue, with spans.
constexpr int kCrashVariants = 4;
constexpr double kCrashSpanShare = 0.05;
// The crash drills behind recovery_s: sized so that one verified restart
// takes under a second (payments) or about a second (order economy with
// spans); verification is super-linear in the crashed history.
constexpr DrillConfig kPayDrill{240, 40, 20};
constexpr DrillConfig kOrderDrill{120, 32, 10};
// Set-ups timed per round; setup_s is their median.
constexpr int kPaySetupsPerRound = 6;
constexpr int kOrderSetupsPerRound = 1;

int64_t Scaled(const Args& args, double n) {
  return std::max<int64_t>(1, std::llround(n * args.scale));
}

std::string BuildType() {
#ifdef NDEBUG
  return "optimized (NDEBUG)";
#else
  return "debug (assertions on)";
#endif
}

volatile uint64_t calibration_sink;

/// Wall time of a fixed integer loop, median of five: the host's speed at
/// the time of the run, so that runs made at different times can be told
/// apart from changes of the code.
double HostCalibrationMs() {
  std::vector<double> ms;
  for (int r = 0; r < 5; ++r) {
    const int64_t begin = NowNs();
    uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    calibration_sink = x;
    ms.push_back(static_cast<double>(NowNs() - begin) / 1e6);
  }
  return Median(ms);
}

void CommonMeta(const Args& args, Report* report) {
  report->Meta("workload", args.workload);
  report->Meta("seed", static_cast<double>(args.seed));
  report->Meta("seconds", args.seconds);
  report->Meta("scale", args.scale);
  report->Meta("hardware_threads",
               static_cast<double>(std::thread::hardware_concurrency()));
  report->Meta("shards", kShards);
  report->Meta("producer_threads", 1);
  report->Meta("build_type", BuildType());
  report->Meta("host_calibration_ms", HostCalibrationMs());
}

tpm::ShardedRuntimeOptions ServingOptions(tpm::ShardLogMode log_mode) {
  tpm::ShardedRuntimeOptions options;
  options.num_shards = kShards;
  options.mode = tpm::TickMode::kFreeRunning;
  options.queue_capacity = 4096;
  options.backpressure = tpm::BackpressurePolicy::kBlock;
  options.batched_admission = true;
  options.scheduler.reclaim_terminated = true;
  options.log_mode = log_mode;
  return options;
}

using WorldFactory = std::function<std::unique_ptr<World>()>;

/// A started runtime over a freshly built world.
struct SetUp {
  tpm::Status status = tpm::Status::OK();
  std::string wal_dir;
  std::unique_ptr<World> world;
  std::unique_ptr<tpm::ShardedRuntime> runtime;
};

/// Times one set-up: world and definition build, registration and
/// Start(). A file-WAL runtime gets a fresh directory.
SetUp TimedSetUp(const Args& args, const WorldFactory& make_world,
                 tpm::ShardedRuntimeOptions options,
                 tpm::RuntimeObserver* observer, std::vector<double>* setup_s,
                 Tracer* tracer) {
  SetUp s;
  if (options.log_mode == tpm::ShardLogMode::kFile) {
    s.wal_dir = FreshDir(args, tpm::StrCat("setup", setup_s->size()));
    options.wal_dir = s.wal_dir;
  }
  const int64_t begin = NowNs();
  s.world = make_world();
  if (!s.world->ok()) s.status = tpm::Status::Internal("world build");
  s.runtime = std::make_unique<tpm::ShardedRuntime>(options);
  if (s.status.ok()) s.status = s.runtime->AddObserver(observer);
  if (s.status.ok()) s.status = s.world->Register(s.runtime.get());
  if (s.status.ok()) s.status = s.runtime->Start();
  const int64_t end = NowNs();
  tracer->Add("bench.setup", begin, end);
  setup_s->push_back(static_cast<double>(end - begin) / 1e9);
  Heartbeat();
  return s;
}

/// `n` timed set-ups that serve nothing, each stopped right away. Set-ups
/// are sampled at several points of a run so that their median covers the
/// run rather than one instant of a shared host.
void SampleSetUps(const Args& args, const WorldFactory& make_world,
                  const tpm::ShardedRuntimeOptions& options, int n,
                  std::vector<double>* setup_s, Tracer* tracer,
                  Report* report) {
  ProcessRecorder unused(kShards, 0, false);
  tpm::Status status = tpm::Status::OK();
  for (int k = 0; k < n; ++k) {
    SetUp s = TimedSetUp(args, make_world, options, &unused, setup_s, tracer);
    const tpm::Status stopped = s.runtime->Stop();
    if (status.ok()) status = s.status.ok() ? stopped : s.status;
    RemoveDir(s.wal_dir);
  }
  report->Gate(status.ok(), "sampled set-ups: " + status.ToString());
}

void ReportSetup(const std::vector<double>& setup_s, Report* report) {
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->Meta("setups", static_cast<double>(setup_s.size()));
}

void ReportDerivation(World* world, Tracer* tracer, Report* report) {
  if (tracer->enabled()) {
    report->Gate(TimeConflictDerivation(world, kShards, tracer).ok(),
                 "the benchmark's own conflict partition succeeds");
  }
  report->Layer("subsystem.derive_conflicts_s",
                tracer->TotalSeconds("subsystem.derive_conflicts"), "s");
  report->Layer("runtime.partition_s",
                tracer->TotalSeconds("runtime.partition"), "s");
}

/// What the serving rounds leave for the workload's own gates.
struct Served {
  std::unique_ptr<World> world;
  std::vector<Block> throughput;
  std::vector<Block> latency;
};

/// Sets the serving world up and runs kRounds rounds on it. Each round
/// times `setups` set-ups (in round 0, the serving runtime's own is one
/// of them), serves a `throughput` block and, if it has timed work, a
/// `latency` block, and runs its share of `drills`. Reports the serving
/// metrics and layers and gates the world's invariants.
Served RunRounds(const Args& args, const WorldFactory& make_world,
                 const tpm::ShardedRuntimeOptions& options,
                 const LoadSpec& throughput, const LoadSpec& latency,
                 int setups, RecoveryDrills* drills,
                 std::vector<double>* setup_s, Tracer* tracer,
                 Report* report) {
  Served served;
  const bool file_wal = options.log_mode == tpm::ShardLogMode::kFile;
  report->Meta("wal", file_wal ? "file WAL per shard" : "in-memory WAL");
  report->Meta("flush_policy",
               file_wal ? "synchronous: each record is fsynced on append"
                        : "none (in-memory)");
  report->Meta("reclaim_terminated", "on");
  report->Meta("rounds", kRounds);

  SampleSetUps(args, make_world, options, setups - 1, setup_s, tracer,
               report);
  // Pids of pinned processes spread over the shards; the recorder grows
  // past this size if a shard gets more.
  const int64_t total = kRounds * (throughput.warmup + throughput.timed +
                                   latency.warmup + latency.timed);
  auto recorder = std::make_unique<ProcessRecorder>(
      kShards, static_cast<size_t>(total / kShards + total / 16 + 64),
      tracer->enabled());
  SetUp s = TimedSetUp(args, make_world, options, recorder.get(), setup_s,
                       tracer);
  report->Gate(s.status.ok(), "setup: " + s.status.ToString());
  if (!s.status.ok()) return served;
  served.world = std::move(s.world);
  report->Meta("services",
               static_cast<double>(s.runtime->union_spec().NumServices()));

  tpm::Rng rng(args.seed);
  const std::function<Work()> next = [&] { return served.world->Next(&rng); };
  auto serve = [&](const LoadSpec& spec, std::vector<Block>* blocks) {
    Block& block = blocks->emplace_back();
    block.spec = spec;
    block.run = Serve(s.runtime.get(), recorder.get(), spec, next);
  };
  for (int r = 0; r < kRounds; ++r) {
    if (r > 0) {
      SampleSetUps(args, make_world, options, setups, setup_s, tracer,
                   report);
    }
    serve(throughput, &served.throughput);
    if (latency.timed > 0) serve(latency, &served.latency);
    const int drills_done = r * drills->config().drills / kRounds;
    drills->Run((r + 1) * drills->config().drills / kRounds - drills_done);
  }
  report->Gate(s.runtime->Stop().ok(), "runtime stops");

  // Per-process spans come from the blocks latency_p50_us is measured on.
  std::vector<Block>& latency_blocks =
      served.latency.empty() ? served.throughput : served.latency;
  for (std::vector<Block>* blocks : {&served.throughput, &served.latency}) {
    for (Block& block : *blocks) {
      block.outcome =
          Analyze(s.runtime.get(), *recorder, block.run, block.spec, tracer,
                  blocks == &latency_blocks ? 8 : 0);
    }
  }
  ReportServing(served.throughput, latency_blocks, report);
  const tpm::Status invariants = served.world->CheckInvariants();
  report->Gate(invariants.ok(), "world invariants: " + invariants.ToString());
  ReportServingLayers(s.runtime.get(), served.throughput, *recorder, tracer,
                      report);
  ReportDerivation(served.world.get(), tracer, report);
  if (file_wal) report->Meta("wal_file_bytes", DirBytes(s.wal_dir));
  report->Meta("recorder_table_mb", recorder->TableBytes() / 1e6);
  return served;
}

/// One round's block of a closed loop with `clients` outstanding.
LoadSpec ClosedLoop(const Args& args, int clients, double per_second) {
  LoadSpec spec;
  spec.open_loop = false;
  spec.clients = clients;
  spec.timed = Scaled(args, per_second * args.seconds / kRounds);
  spec.warmup = Scaled(args, per_second * args.seconds / kRounds / 10);
  return spec;
}

enum class PayMode { kOpen, kClosed, kDurable };

void RunPay(const Args& args, PayMode mode, Tracer* tracer, Report* report) {
  CommonMeta(args, report);
  const bool durable = mode == PayMode::kDurable;
  const double span_share = mode == PayMode::kOpen ? kPaySpanShare : 0.0;
  LoadSpec throughput;
  LoadSpec latency;
  if (mode == PayMode::kOpen) {
    // Open-loop blocks give both figures; latency runs from each
    // submission's scheduled instant.
    throughput.open_loop = true;
    throughput.rate_per_s = kPayOpenRate;
    throughput.timed = Scaled(args, kPayOpenRate * args.seconds / kRounds);
    throughput.warmup = Scaled(args, kPayOpenRate * args.seconds / kRounds / 10);
  } else {
    throughput = ClosedLoop(
        args, kPayClients, durable ? kPayDurablePerSecond : kPayClosedPerSecond);
    latency = ClosedLoop(args, kLatencyClients,
                         durable ? kPayDurableLatencyPerSecond
                                 : kPayLatencyPerSecond);
  }
  const tpm::ShardedRuntimeOptions options = ServingOptions(
      durable ? tpm::ShardLogMode::kFile : tpm::ShardLogMode::kMemory);
  const WorldFactory make_world = [&] {
    return std::make_unique<PayWorld>(kPayTenants, span_share);
  };
  RecoveryDrills drills(
      args,
      [&](int) { return std::make_unique<PayWorld>(kPayTenants, span_share); },
      kPayDrill, tracer, report);
  std::vector<double> setup_s;
  {
    Served served =
        RunRounds(args, make_world, options, throughput, latency,
                  kPaySetupsPerRound, &drills, &setup_s, tracer, report);
    if (served.world == nullptr) return;

    // Every escrow counter equals its committed increments.
    const auto* world = static_cast<const PayWorld*>(served.world.get());
    std::vector<int64_t> reserved(kPayTenants, 0);
    std::vector<int64_t> settled(kPayTenants, 0);
    for (const std::vector<Block>* blocks :
         {&served.throughput, &served.latency}) {
      for (const Block& block : *blocks) {
        for (size_t i = 0; i < block.run.submissions.size(); ++i) {
          if (!block.outcome.committed_flags[i]) continue;
          ++reserved[block.run.submissions[i].tag / kPayTenants];
          ++settled[block.run.submissions[i].tag % kPayTenants];
        }
      }
    }
    for (int t = 0; t < kPayTenants; ++t) {
      report->Gate(
          world->Reserved(t) == reserved[t] && world->Settled(t) == settled[t],
          tpm::StrCat("tenant ", t,
                      ": escrow counters equal committed increments (",
                      world->Reserved(t), "/", reserved[t], ", ",
                      world->Settled(t), "/", settled[t], ")"));
    }
  }
  drills.Finish();
  ReportSetup(setup_s, report);
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
}

void RunOrders(const Args& args, int clients, Tracer* tracer,
               Report* report) {
  CommonMeta(args, report);
  // The smoke check's tiny scale also shrinks the catalogue.
  const int variants = std::max(
      1, static_cast<int>(std::lround(kOrderVariants *
                                      std::min(1.0, args.scale * 8))));
  report->Meta("tenants", kOrderTenants);
  report->Meta("variants_per_shape", variants);
  report->Meta("shape_mix", "order:consume:refill = 1:2:1");
  report->Meta("drill_world", tpm::StrCat(kOrderTenants, " tenants, ",
                                          kCrashVariants, " variants, ",
                                          kCrashSpanShare, " spanning"));
  const WorldFactory make_world = [&] {
    return std::make_unique<OrderWorld>(args.seed, kOrderTenants, variants,
                                        0.0);
  };
  RecoveryDrills drills(
      args,
      [&](int drill) {
        return std::make_unique<OrderWorld>(args.seed * 1000 + drill,
                                            kOrderTenants, kCrashVariants,
                                            kCrashSpanShare);
      },
      kOrderDrill, tracer, report);
  std::vector<double> setup_s;
  RunRounds(args, make_world, ServingOptions(tpm::ShardLogMode::kMemory),
            ClosedLoop(args, clients, kOrdersPerSecond),
            ClosedLoop(args, kLatencyClients, kOrdersLatencyPerSecond),
            kOrderSetupsPerRound, &drills, &setup_s, tracer, report);
  drills.Finish();
  ReportSetup(setup_s, report);
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace

bool RunWorkload(const Args& args, Tracer* tracer, Report* report) {
  if (args.workload == "pay_open") {
    RunPay(args, PayMode::kOpen, tracer, report);
  } else if (args.workload == "pay_closed") {
    RunPay(args, PayMode::kClosed, tracer, report);
  } else if (args.workload == "pay_durable") {
    RunPay(args, PayMode::kDurable, tracer, report);
  } else if (args.workload == "orders_closed") {
    RunOrders(args, kOrderClients, tracer, report);
  } else if (args.workload == "orders_contended") {
    RunOrders(args, kOrderContendedClients, tracer, report);
  } else {
    return false;
  }
  return true;
}

}  // namespace tpmbench
