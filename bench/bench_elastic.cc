// E25 — elastic runtime: what load-aware migration buys under skew.
//
// The workload is deliberately unfair: 8 independent tenants across 4
// shards, with 90% of the submission stream aimed at a 2-tenant hot set
// that is CO-LOCATED on one shard (the adversarial placement a static
// partition cannot escape — the partitioner balances service counts, not
// traffic). The same deterministic submission stream then runs twice:
//
//   static  — elastic layer off entirely (the exact pre-elastic hot
//             path: no probe, no monitor, no engine). The hot shard
//             serializes ~90% of the work while three shards idle.
//   elastic — adaptive controller on. The load monitor sees the sustained
//             imbalance, the policy picks the second-hottest component on
//             the hot shard, and the engine quiesce-and-migrates it to a
//             cold shard mid-stream — after which the hot traffic runs
//             two shards wide.
//
// Headline: elastic commit throughput >= 1.4x static at 4 shards. The
// mechanism needs real parallelism to show (4 shard workers timesharing
// one core gain nothing from spreading load), so the exit code enforces
// the headline only when hardware_concurrency >= 4; below that the run
// still prints and records the ratio, annotated as unenforced.
//
// `--json <path>` writes BENCH_elastic.json. The tenant draw sequence and
// process shapes are deterministic per seed; wall-clock varies run to run.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_writer.h"
#include "common/str_util.h"
#include "runtime/sharded_runtime.h"
#include "workload/sharded_world.h"
#include "workload/skewed_traffic.h"

using namespace tpm;

namespace {

constexpr uint64_t kSeed = 2025;
constexpr int kTenants = 8;
constexpr int kShards = 4;
constexpr int kRepetitions = 2;  // best-of to damp scheduler noise
constexpr double kHotFraction = 0.9;
constexpr int kHotTenants = 2;
constexpr double kRequiredSpeedup = 1.4;

// Closed-loop: submissions go in waves of kWave with a Drain barrier
// between — flooding thousands of mutually conflicting processes into two
// hot components open-loop just measures the scheduler's abort churn, not
// placement. Overridable for CI smoke runs (--draws N, --wave N).
int g_draws = 9600;
int g_wave = 12;

/// Every tenant gets the full (shape x round) service set up front, so
/// all conflict components have EQUAL service counts and the greedy
/// partitioner's placement is independent of the skewed draw sequence.
/// The returned defs double as per-tenant handles for router queries.
std::vector<const ProcessDef*> MakeWarmupDefs(ShardedWorld* world) {
  std::vector<const ProcessDef*> first_of_tenant;
  for (int t = 0; t < kTenants; ++t) {
    for (int round = 0; round < 4; ++round) {
      const ProcessDef* order = world->MakeOrderProcess(
          t, StrCat("warm_o_t", t, "_", round), round);
      world->MakeConsumeProcess(t, StrCat("warm_c_t", t, "_", round), round);
      world->MakeRefillProcess(t, StrCat("warm_r_t", t, "_", round), round);
      if (round == 0) first_of_tenant.push_back(order);
    }
  }
  return first_of_tenant;
}

ShardedWorldOptions WorldOptions() {
  return ShardedWorldOptions{.seed = kSeed,
                             .num_tenants = kTenants,
                             // Deep enough that the skewed stream never
                             // aborts on an empty counter or queue — the
                             // two runs must commit identical work.
                             .escrow_initial = 1'000'000,
                             .queue_initial_tokens = 1'000'000};
}

/// Finds the tenant (> 0) whose conflict component shares tenant 0's
/// shard under the production partition, by running a throwaway runtime
/// over an identically-shaped world. Returns -1 on failure.
int FindCoLocatedPartner(std::string* error) {
  ShardedWorld world(WorldOptions());
  std::vector<const ProcessDef*> handles = MakeWarmupDefs(&world);
  ShardedRuntimeOptions options;
  options.num_shards = kShards;
  options.mode = TickMode::kFreeRunning;
  options.log_mode = ShardLogMode::kMemory;
  ShardedRuntime runtime(options);
  Status status = world.RegisterAll(&runtime);
  if (status.ok()) status = runtime.Start();
  if (!status.ok()) {
    *error = StrCat("probe: ", status.ToString());
    return -1;
  }
  const int shard0 = runtime.router().ShardOfComponent(
      runtime.router().ComponentOfDef(*handles[0]));
  int partner = -1;
  for (int t = 1; t < kTenants && partner < 0; ++t) {
    const int shard = runtime.router().ShardOfComponent(
        runtime.router().ComponentOfDef(*handles[static_cast<size_t>(t)]));
    if (shard == shard0) partner = t;
  }
  (void)runtime.Stop();
  if (partner < 0) *error = "probe: no tenant co-located with tenant 0";
  return partner;
}

struct RunReport {
  bool elastic = false;
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t migrations = 0;
  /// Wall time of the completed migrations in the fastest repetition.
  double migration_seconds = 0.0;
  double best_seconds = 0.0;
  double throughput = 0.0;
  bool ok = true;
  std::string error;
};

/// One measured configuration, best of kRepetitions: the same skewed
/// stream (hot set remapped onto the co-located pair {0, partner}) runs
/// to quiescence with the elastic layer on or off.
RunReport RunOnce(bool elastic, int partner) {
  RunReport report;
  report.elastic = elastic;
  double best = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    ShardedWorld world(WorldOptions());
    std::vector<const ProcessDef*> handles = MakeWarmupDefs(&world);

    // The chooser's initial hot set is {0, 1}; swapping tenants 1 and
    // `partner` aims it at the co-located pair instead.
    SkewedTraffic traffic(SkewedTrafficOptions{.seed = kSeed,
                                               .num_tenants = kTenants,
                                               .hot_fraction = kHotFraction,
                                               .hot_tenants = kHotTenants,
                                               .phase_length = 0});
    std::vector<const ProcessDef*> defs;
    defs.reserve(static_cast<size_t>(g_draws));
    for (int i = 0; i < g_draws; ++i) {
      int t = traffic.NextTenant();
      if (t == 1) {
        t = partner;
      } else if (t == partner) {
        t = 1;
      }
      const int round = (i / 3) % 4;
      const std::string name = StrCat("p", i, "_t", t);
      switch (i % 3) {
        case 0:
          defs.push_back(world.MakeOrderProcess(t, name, round));
          break;
        case 1:
          defs.push_back(world.MakeConsumeProcess(t, name, round));
          break;
        default:
          defs.push_back(world.MakeRefillProcess(t, name, round));
          break;
      }
    }

    ShardedRuntimeOptions options;
    options.num_shards = kShards;
    options.mode = TickMode::kFreeRunning;
    options.log_mode = ShardLogMode::kMemory;
    options.queue_capacity = static_cast<size_t>(g_draws);
    if (elastic) {
      options.elastic.enabled = true;
      // Migrations verify the target's merged history (PRED + Proc-REC,
      // the default); its cost is reported as migration time.
      options.elastic.policy.enabled = true;
      options.elastic.policy.imbalance_ratio = 1.5;
      options.elastic.policy.sustain_polls = 2;
      options.elastic.policy.cooldown_polls = 8;
      options.elastic.policy.poll_interval_ms = 2;
      options.elastic.policy.park_idle_shards = false;
    }
    ShardedRuntime runtime(options);
    Status status = world.RegisterAll(&runtime);
    if (status.ok()) status = runtime.Start();
    if (status.ok()) {
      // The placement the whole experiment leans on: the hot pair really
      // is co-located at start.
      const int shard_a = runtime.router().ShardOfComponent(
          runtime.router().ComponentOfDef(*handles[0]));
      const int shard_b = runtime.router().ShardOfComponent(
          runtime.router().ComponentOfDef(
              *handles[static_cast<size_t>(partner)]));
      if (shard_a != shard_b) {
        status = Status::Internal(
            StrCat("hot pair not co-located: tenant 0 on shard ", shard_a,
                   ", tenant ", partner, " on shard ", shard_b));
      }
    }
    const auto begin = std::chrono::steady_clock::now();
    for (size_t next = 0; status.ok() && next < defs.size();) {
      const size_t wave_end =
          std::min(next + static_cast<size_t>(g_wave), defs.size());
      for (; next < wave_end; ++next) {
        auto ticket = runtime.Submit(defs[next]);
        if (!ticket.ok()) {
          status = ticket.status();
          break;
        }
      }
      if (status.ok()) status = runtime.Drain();
    }
    const auto end = std::chrono::steady_clock::now();
    RuntimeStats stats = runtime.Stats();
    (void)runtime.Stop();
    if (!status.ok()) {
      report.ok = false;
      report.error = status.ToString();
      return report;
    }
    if (!world.CheckAdtInvariants().ok()) {
      report.ok = false;
      report.error = "ADT invariants violated after drain";
      return report;
    }

    const double seconds =
        std::chrono::duration<double>(end - begin).count();
    if (rep == 0 || seconds < best) {
      best = seconds;
      report.migration_seconds = stats.migration_s;
    }
    report.submitted = g_draws;
    report.committed = stats.merged.processes_committed;
    report.aborted = stats.merged.processes_aborted;
    report.migrations = std::max(report.migrations,
                                 stats.migrations_completed);
  }
  report.best_seconds = best;
  report.throughput = best > 0 ? report.committed / best : 0.0;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--draws" && i + 1 < argc) {
      g_draws = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--wave" && i + 1 < argc) {
      g_wave = std::max(1, std::atoi(argv[++i]));
    }
  }

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const bool enforced = hw >= kShards;
  std::cout << "E25 elastic runtime under skew (" << kShards << " shards, "
            << kTenants << " tenants, " << g_draws << " submissions, "
            << static_cast<int>(kHotFraction * 100) << "% of traffic on a "
            << kHotTenants << "-tenant co-located hot set, best of "
            << kRepetitions << " reps, hw threads = " << hw << ")\n";

  std::string probe_error;
  const int partner = FindCoLocatedPartner(&probe_error);
  bool all_ok = partner >= 0;
  if (!all_ok) std::cout << "  [FAILED: " << probe_error << "]\n";

  RunReport runs[2];
  if (all_ok) {
    std::cout << "\n  config    committed/submitted   aborted   migrations"
                 "   seconds   commit/s   migration ms\n";
    for (int i = 0; i < 2; ++i) {
      const bool elastic = i == 1;
      runs[i] = RunOnce(elastic, partner);
      all_ok = all_ok && runs[i].ok;
      std::cout << "  " << (elastic ? "elastic" : "static ")
                << std::setw(12) << runs[i].committed << "/"
                << runs[i].submitted << std::setw(10) << runs[i].aborted
                << std::setw(13) << runs[i].migrations
                << std::fixed << std::setprecision(4) << std::setw(10)
                << runs[i].best_seconds << std::setprecision(0)
                << std::setw(11) << runs[i].throughput
                << std::setprecision(3) << std::setw(15)
                << runs[i].migration_seconds * 1e3
                << (runs[i].ok ? ""
                               : StrCat("  [FAILED: ", runs[i].error, "]"))
                << "\n";
    }
  }

  const double speedup =
      (all_ok && runs[0].throughput > 0)
          ? runs[1].throughput / runs[0].throughput
          : 0.0;
  const bool headline_pass =
      all_ok &&
      (!enforced || (speedup >= kRequiredSpeedup && runs[1].migrations >= 1));
  if (all_ok) {
    std::cout << "\n  headline: elastic vs static commit throughput: "
              << std::fixed << std::setprecision(2) << speedup
              << "x (require >= " << kRequiredSpeedup << "x, "
              << (enforced
                      ? "enforced"
                      : StrCat("UNENFORCED: ", hw, " hw threads < ",
                               kShards, " shards — spreading load over "
                               "timeshared workers proves nothing"))
              << ") " << (headline_pass ? "[OK]" : "[FAIL]") << "\n";
    std::cout <<
        "\n  expected shape: static serializes ~90% of the stream on the\n"
        "  hot shard while three shards idle; the controller's one\n"
        "  migration splits the hot pair across two shards, so the bound\n"
        "  drops from ~0.9 of the work on one worker to ~0.45 on each of\n"
        "  two — an ideal ~2x, of which >= 1.4x must survive detection\n"
        "  latency and the quiesce window.\n";
  }

  const bool pass = all_ok && headline_pass;

  std::ostringstream json;
  bench::JsonWriter writer(json);
  writer.BeginObject();
  writer.Field("benchmark",
               StrCat("bench_elastic E25 elastic runtime under skew (",
                      kShards, " shards, ", kTenants, " tenants, ", g_draws,
                      " submissions)"));
  writer.Field(
      "methodology",
      StrCat("identical deterministic skewed stream (90% of draws on a "
             "2-tenant hot set co-located on one shard by construction) "
             "submitted closed-loop in waves of ", g_wave,
             " to quiescence, best of ", kRepetitions,
             "; static = elastic layer off entirely (pre-elastic hot "
             "path), elastic = adaptive controller (imbalance 1.5x "
             "sustained 2 polls at 2 ms, verified imports) migrating "
             "components mid-stream; throughput = committed / best "
             "seconds"));
  writer.Field("hardware_threads", hw);
  writer.Field("co_located_partner_tenant", partner);
  writer.BeginArray("runs");
  for (int i = 0; i < 2; ++i) {
    const RunReport& report = runs[i];
    writer.BeginObject();
    writer.Field("config", report.elastic ? "elastic" : "static");
    writer.Field("submitted", report.submitted);
    writer.Field("committed", report.committed);
    writer.Field("aborted", report.aborted);
    writer.Field("migrations_completed", report.migrations);
    writer.Field("migration_ms", report.migration_seconds * 1e3, 3);
    writer.Field("best_seconds", report.best_seconds, 6);
    writer.Field("commit_throughput_per_s", report.throughput, 1);
    writer.Field("ok", report.ok);
    if (!report.ok) writer.Field("error", report.error);
    writer.EndObject();
  }
  writer.EndArray();
  writer.BeginObject("headline");
  writer.Field("elastic_speedup", speedup, 3);
  writer.Field("required_speedup", kRequiredSpeedup, 2);
  writer.Field("enforced", enforced);
  writer.Field("pass", pass);
  writer.EndObject();
  writer.EndObject();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::cout << "\n  wrote " << json_path << "\n";
  }
  return pass ? 0 : 1;
}
