// The process-runtime benchmark. One run executes one workload:
//
//   tpmbench --workload <pay_closed|orders_closed|pay_open|pay_durable|
//                        orders_contended>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>] [--work-dir <dir>] [--scale <x>]
//
// --seconds sizes the fixed amount of work (an offered rate times the
// seconds, or a process count per second) — the run never does "as much as
// fits". An untraced run (--trace 0) prints the end-to-end metrics. A
// traced run (--trace 1) runs the workload untraced and then again with
// per-process spans, prints the per-layer metrics and the tracing
// overhead, and writes the span log to --trace-out. Human-readable lines
// come first; the last line is the JSON result.

#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/str_util.h"
#include "workloads.h"
#include "worlds.h"

namespace {

bool ParseArgs(int argc, char** argv, tpmbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stoi(value);
      } else if (flag == "--trace") {
        args->trace = value == "1";
      } else if (flag == "--trace-out") {
        args->trace_out = value;
      } else if (flag == "--work-dir") {
        args->work_dir = value;
      } else if (flag == "--scale") {
        args->scale = std::stod(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->scale > 0;
}

}  // namespace

int main(int argc, char** argv) {
  tpmbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: tpmbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] [--work-dir <dir>] "
                 "[--scale <x>]\n";
    return 2;
  }

  // The longest quiet phase is one verified restart (a few seconds); the
  // budget keeps a run that has slowed to a crawl inside the 180 s a
  // benchmark run may take.
  tpmbench::StallWatchdog watchdog(std::chrono::seconds(45),
                                   std::chrono::seconds(120));
  tpmbench::Args untraced_args = args;
  untraced_args.trace = false;
  tpmbench::Tracer off(false);
  tpmbench::Report untraced;
  if (!tpmbench::RunWorkload(untraced_args, &off, &untraced)) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (!args.trace) {
    tpmbench::RemoveDir(tpmbench::RunDir(args));
    untraced.Print(false);
    return 0;
  }

  tpmbench::Tracer tracer(true);
  tpmbench::Report traced;
  tpmbench::RunWorkload(args, &tracer, &traced);
  // Tracing overhead: the traced run's figure relative to the untraced one.
  for (const auto& [metric, layer] :
       {std::pair<std::string, std::string>{"latency_p50_us", "latency_p50"},
        {"commit_per_s", "commit_per_s"}}) {
    const double base = untraced.EndToEndValue(metric);
    const double with = traced.EndToEndValue(metric);
    traced.Layer("bench.trace_overhead." + layer,
                 base > 0 ? with / base - 1.0 : 0.0, "share");
    traced.Meta("untraced_" + metric, base);
  }
  traced.MergeFrom(untraced);
  if (args.trace_out.empty()) {
    args.trace_out = tpm::StrCat(".bench_build/traces/", args.workload,
                                 "-seed", args.seed, ".csv");
  }
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(args.trace_out).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  const std::string trace_id = tpm::StrCat(args.workload, "-", args.seed, "-",
                                           ::getpid(), "-", tpmbench::NowNs());
  traced.Gate(tracer.Write(args.trace_out, trace_id),
              "span log written to " + args.trace_out);
  traced.Meta("trace_id", trace_id);
  traced.Meta("trace_file", args.trace_out);
  traced.Meta("spans", static_cast<double>(tracer.size()));
  tpmbench::RemoveDir(tpmbench::RunDir(args));
  traced.Print(true);
  return 0;
}
