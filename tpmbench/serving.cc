#include "serving.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <numeric>
#include <utility>

#include "common/str_util.h"

namespace tpmbench {

namespace {

constexpr int64_t kSampleEvery = 64;

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

}  // namespace

ServingRun Serve(tpm::ShardedRuntime* runtime, ProcessRecorder* recorder,
                 const LoadSpec& spec, const std::function<Work()>& next) {
  ServingRun run;
  const int64_t total = spec.warmup + spec.timed;
  run.submissions.resize(total);
  const int64_t base_terminated = recorder->terminated();
  int64_t refused = 0;
  int64_t slices = 0;
  // Tickets not yet admitted, oldest first. Each is resolved to its shard
  // and pid as soon as it is ready, and dropped.
  std::deque<std::pair<int64_t, tpm::SubmitTicket>> pending;
  auto resolve = [&](bool wait) {
    while (!pending.empty()) {
      auto& [index, ticket] = pending.front();
      if (!wait && ticket.pid.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready) {
        return;
      }
      const tpm::Result<tpm::ProcessId> pid = ticket.Await();
      if (pid.ok()) {
        run.submissions[index].pid = pid->value();
      } else {
        ++run.refused;
        if (run.first_error.empty()) {
          run.first_error = "admission: " + pid.status().ToString();
        }
      }
      pending.pop_front();
    }
  };
  const int64_t start_ns = NowNs();
  for (int64_t i = 0; i < total; ++i) {
    Submission& s = run.submissions[i];
    const Work work = next();
    s.tag = work.tag;
    if (spec.open_loop) {
      const int64_t due =
          start_ns + static_cast<int64_t>(1e9 * static_cast<double>(i) /
                                          spec.rate_per_s);
      // Spin: the inter-arrival gap (tens of microseconds) is below what a
      // timed sleep can honour, and the producer owns its core.
      while (NowNs() < due) {
      }
      s.scheduled_ns = due;
      s.call_start_ns = NowNs();
    } else {
      const int64_t must_have_terminated =
          base_terminated + (i - refused) - spec.clients + 1;
      if (must_have_terminated > base_terminated) {
        recorder->WaitForTerminations(must_have_terminated);
      }
      s.scheduled_ns = s.call_start_ns = NowNs();
    }
    tpm::Result<tpm::SubmitTicket> ticket = runtime->Submit(work.def);
    s.call_end_ns = NowNs();
    if (ticket.ok()) {
      s.shard = ticket->shard;
      s.gsn = ticket->gsn;
      pending.emplace_back(i, std::move(*ticket));
      slices += work.slices;
    } else {
      ++refused;
      ++run.refused;
      if (run.first_error.empty()) {
        run.first_error = "refused: " + ticket.status().ToString();
      }
    }
    resolve(/*wait=*/false);
    if (i % kSampleEvery == 0) {
      const std::vector<size_t> depths = runtime->QueueDepths();
      run.queue_depth_samples.push_back(static_cast<double>(
          std::accumulate(depths.begin(), depths.end(), size_t{0})));
      run.active_samples.push_back(static_cast<double>(
          slices - (recorder->terminated() - base_terminated)));
    }
  }
  run.drain_status = runtime->Drain();
  resolve(/*wait=*/true);
  return run;
}

ServingOutcome Analyze(tpm::ShardedRuntime* runtime,
                       const ProcessRecorder& recorder, const ServingRun& run,
                       const LoadSpec& spec, Tracer* tracer,
                       int64_t sample_every) {
  ServingOutcome out;
  std::map<int, int64_t> last_pid;
  int64_t first_scheduled = -1;
  int64_t last_terminated = -1;
  for (int64_t i = 0; i < static_cast<int64_t>(run.submissions.size()); ++i) {
    const Submission& s = run.submissions[i];
    const bool timed = i >= spec.warmup;
    out.committed_flags.push_back(false);
    if (timed) {
      ++out.submitted;
      if (first_scheduled < 0) first_scheduled = s.scheduled_ns;
      out.latency_us.push_back(-1);
    }
    auto fail = [&](const std::string& why) {
      if (!timed) return;
      ++out.failed;
      if (out.first_error.empty()) out.first_error = why;
    };
    if (s.pid == 0) {
      fail(run.first_error);
      continue;
    }
    const tpm::ProcessId pid(s.pid);
    // A spanning process is one process, whatever its slices: its ticket
    // carries the global serial number the agent decides.
    const bool spanning = s.gsn >= 0;
    if (!spanning) {
      // FIFO admission from the single producer: per shard, pids ascend
      // in submission order.
      int64_t& last = last_pid[s.shard];
      if (s.pid <= last) out.fifo_ok = false;
      last = s.pid;
    }
    const ProcessRecorder::Entry* entry = recorder.Find(s.shard, pid);
    bool committed = false;
    bool decided = true;
    if (spanning) {
      const tpm::SpanOutcome span = runtime->SpanningOutcome(s.gsn);
      committed = span == tpm::SpanOutcome::kCommitted;
      decided = committed || span == tpm::SpanOutcome::kAborted;
    } else {
      decided = entry != nullptr;
      committed =
          decided && entry->outcome == tpm::ProcessOutcome::kCommitted;
    }
    out.committed_flags.back() = committed;
    if (!timed) continue;
    if (spanning) ++out.spans;
    if (!decided) {
      fail(spanning ? "spanning process undecided"
                    : "process never terminated");
      continue;
    }
    if (spanning && committed) ++out.spans_committed;
    if (!committed) ++out.aborted;
    if (committed) ++out.committed;
    if (entry == nullptr) continue;
    const double latency =
        static_cast<double>(entry->terminated_ns - s.scheduled_ns) / 1e3;
    out.latency_us.back() = latency;
    if (spanning) out.span_latency_us.push_back(latency);
    last_terminated = std::max(last_terminated, entry->terminated_ns);

    if (sample_every > 0 && tracer->enabled() &&
        (i - spec.warmup) % sample_every == 0) {
      const int64_t process = tracer->Add("bench.process", s.scheduled_ns,
                                          entry->terminated_ns, 0, i);
      tracer->Add("runtime.submit", s.call_start_ns, s.call_end_ns, process,
                  i);
      if (spanning) {
        tracer->Add("runtime.span", s.call_start_ns, entry->terminated_ns,
                    process, i);
      } else if (entry->first_commit_ns >= 0) {
        tracer->Add("runtime.admit_wait", s.call_end_ns,
                    entry->first_commit_ns, process, i);
        tracer->Add("core.execute", entry->first_commit_ns,
                    entry->last_commit_ns, process, i);
        tracer->Add("core.terminate", entry->last_commit_ns,
                    entry->terminated_ns, process, i);
      }
    }
  }
  if (first_scheduled >= 0 && last_terminated > first_scheduled) {
    out.serving_s =
        static_cast<double>(last_terminated - first_scheduled) / 1e9;
  }
  return out;
}

namespace {

std::string LoadText(const LoadSpec& spec) {
  return spec.open_loop
             ? tpm::StrCat("open loop, offered ",
                           static_cast<int64_t>(spec.rate_per_s),
                           " processes/s")
             : tpm::StrCat("closed loop, ", spec.clients,
                           " outstanding processes");
}

std::string Joined(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    out += tpm::StrCat(out.empty() ? "" : " ", static_cast<int64_t>(v));
  }
  return out;
}

}  // namespace

void ReportServing(const std::vector<Block>& throughput,
                   const std::vector<Block>& latency, Report* report) {
  std::vector<double> rates;
  for (const Block& block : throughput) {
    rates.push_back(Ratio(block.outcome.committed, block.outcome.serving_s));
  }
  std::vector<double> medians;
  std::vector<double> p99s;
  size_t samples = 0;
  for (const Block& block : latency) {
    std::vector<double> latencies;
    for (double l : block.outcome.latency_us) {
      if (l >= 0) latencies.push_back(l);
    }
    samples += latencies.size();
    medians.push_back(Median(latencies));
    p99s.push_back(Quantile(latencies, 0.99));
  }
  // Medians over blocks spread across the run: a stall, or a spell of a
  // slow shared host, moves only the blocks it falls in.
  report->EndToEnd("commit_per_s", Median(rates), "1/s");
  report->EndToEnd("latency_p50_us", Median(medians), "us");
  // The p99 does not repeat run to run within a usable bound, so it is a
  // printed per-layer figure, not a gated end-to-end one.
  report->Layer("bench.latency_p99_us", Median(p99s), "us");

  report->Meta("throughput_load", LoadText(throughput.front().spec));
  report->Meta("latency_load", LoadText(latency.front().spec));
  report->Meta("blocks", static_cast<double>(throughput.size()));
  report->Meta("latency_samples", static_cast<double>(samples));
  report->Meta("commit_per_s_by_block", Joined(rates));
  report->Meta("latency_p50_us_by_block", Joined(medians));
  report->Meta("latency_p99_us_by_block", Joined(p99s));

  std::vector<const std::vector<Block>*> kinds = {&throughput};
  if (&latency != &throughput) kinds.push_back(&latency);
  for (const std::vector<Block>* blocks : kinds) {
    const std::string name =
        blocks == &throughput ? "throughput blocks" : "latency blocks";
    ServingOutcome sum;
    bool drained = true;
    bool measured = true;
    int64_t warmup = 0;
    for (const Block& block : *blocks) {
      const ServingOutcome& out = block.outcome;
      warmup += block.spec.warmup;
      sum.submitted += out.submitted;
      sum.committed += out.committed;
      sum.aborted += out.aborted;
      sum.failed += out.failed;
      sum.spans += out.spans;
      sum.fifo_ok = sum.fifo_ok && out.fifo_ok;
      if (sum.first_error.empty()) sum.first_error = out.first_error;
      drained = drained && block.run.drain_status.ok();
      measured = measured && out.serving_s > 0;
    }
    report->Meta(name + " warmup_submissions", static_cast<double>(warmup));
    report->Meta(name + " timed_submissions",
                 static_cast<double>(sum.submitted));
    report->Meta(name + " committed", static_cast<double>(sum.committed));
    report->Meta(name + " aborted", static_cast<double>(sum.aborted));
    report->Meta(name + " failed", static_cast<double>(sum.failed));
    report->Meta(name + " spanning_submissions",
                 static_cast<double>(sum.spans));
    report->Gate(drained, name + " drain");
    report->Gate(sum.committed + sum.aborted + sum.failed == sum.submitted,
                 name + ": committed + aborted + refused = submitted");
    report->Gate(sum.failed == 0,
                 name + ": every submission admitted and terminated, every "
                        "span decided (first failure: " +
                     sum.first_error + ")");
    report->Gate(sum.fifo_ok, name + ": pids ascend per shard in submission "
                                     "order (FIFO admission)");
    report->Gate(measured, name + " measured");
    report->attempted += sum.submitted;
    report->failed += sum.failed;
  }
}

void ReportServingLayers(tpm::ShardedRuntime* runtime,
                         const std::vector<Block>& throughput,
                         const ProcessRecorder& recorder, Tracer* tracer,
                         Report* report) {
  // The throughput blocks' samples and counts, pooled.
  ServingOutcome outcome;
  std::vector<double> queue_depths;
  std::vector<double> active;
  std::vector<double> late;
  for (const Block& block : throughput) {
    const ServingOutcome& out = block.outcome;
    outcome.submitted += out.submitted;
    outcome.aborted += out.aborted;
    outcome.failed += out.failed;
    outcome.spans += out.spans;
    outcome.spans_committed += out.spans_committed;
    outcome.span_latency_us.insert(outcome.span_latency_us.end(),
                                   out.span_latency_us.begin(),
                                   out.span_latency_us.end());
    queue_depths.insert(queue_depths.end(),
                        block.run.queue_depth_samples.begin(),
                        block.run.queue_depth_samples.end());
    active.insert(active.end(), block.run.active_samples.begin(),
                  block.run.active_samples.end());
    for (const Submission& s : block.run.submissions) {
      late.push_back(static_cast<double>(s.call_start_ns - s.scheduled_ns) /
                     1e3);
    }
  }
  const std::vector<double> submit = tracer->DurationsUs("runtime.submit");
  const std::vector<double> admit = tracer->DurationsUs("runtime.admit_wait");
  const std::vector<double> execute = tracer->DurationsUs("core.execute");
  const std::vector<double> terminate = tracer->DurationsUs("core.terminate");
  report->Layer("runtime.submit_us.p50", Median(submit), "us");
  report->Layer("runtime.submit_us.p99", Quantile(submit, 0.99), "us");
  report->Layer("runtime.admit_wait_us.p50", Median(admit), "us");
  report->Layer("runtime.admit_wait_us.p99", Quantile(admit, 0.99), "us");
  report->Layer("runtime.queue_depth.p50", Median(queue_depths), "count");
  report->Layer("runtime.queue_depth.max", Quantile(queue_depths, 1.0),
                "count");
  // Only pay_open serves spanning processes; the gated workloads serve
  // pinned ones, where these figures would always read 0.
  if (outcome.spans > 0) {
    report->Layer("runtime.span_latency_us.p50",
                  Median(outcome.span_latency_us), "us");
    report->Layer("runtime.span_latency_us.p99",
                  Quantile(outcome.span_latency_us, 0.99), "us");
    report->Layer("runtime.span_commit_share",
                  Ratio(outcome.spans_committed, outcome.spans), "share");
    report->Meta("span_commit_share_base_spans",
                 static_cast<double>(outcome.spans));
  }
  report->Layer("core.execute_us.p50", Median(execute), "us");
  report->Layer("core.execute_us.p99", Quantile(execute, 0.99), "us");
  report->Layer("core.terminate_us.p50", Median(terminate), "us");
  report->Layer("core.active_set.p50", Median(active), "count");
  report->Layer("core.active_set.max", Quantile(active, 1.0), "count");

  const tpm::SchedulerStats stats = runtime->Stats().merged;
  const double commits = static_cast<double>(stats.processes_committed);
  report->Meta("per_commit_base_scheduler_commits", commits);
  report->Layer("core.steps_per_commit", Ratio(stats.steps, commits), "count");
  report->Layer("core.deferrals_per_commit", Ratio(stats.deferrals, commits),
                "count");
  report->Layer("core.commit_waits_per_commit",
                Ratio(stats.commit_waits, commits), "count");
  report->Layer("core.compensations_per_commit",
                Ratio(stats.compensations, commits), "count");
  report->Layer("core.deadlock_victims",
                static_cast<double>(stats.deadlock_victims), "count");
  report->Layer("core.forced_executions",
                static_cast<double>(stats.forced_executions), "count");
  const double invocations = static_cast<double>(
      stats.activities_committed + stats.failed_invocations);
  report->Meta("invocations", invocations);
  report->Meta("observed_failed_invocations",
               static_cast<double>(recorder.failed_invocations()));
  report->Layer("subsystem.invocations_per_commit",
                Ratio(invocations, commits), "count");
  report->Layer("subsystem.failed_invocation_share",
                Ratio(stats.failed_invocations, invocations), "share");

  double records = 0;
  double bytes = 0;
  const int64_t read_start = NowNs();
  for (int s = 0; s < runtime->num_shards(); ++s) {
    tpm::RecoveryLog* log = runtime->shard_log(s);
    if (log == nullptr) continue;
    for (const std::string& record : log->wal()->records()) {
      records += 1;
      bytes += static_cast<double>(record.size());
    }
  }
  tracer->Add("log.read_records", read_start, NowNs());
  report->Meta("log_records", records);
  report->Layer("log.records_per_commit", Ratio(records, commits), "count");
  report->Layer("log.bytes_per_commit", Ratio(bytes, commits), "B");

  // In a closed loop the producer calls Submit at the scheduled instant, so
  // only the open loop can run late.
  if (throughput.front().spec.open_loop) {
    report->Layer("bench.generator_late_us.p99", Quantile(late, 0.99), "us");
  }
  report->Meta("failed_share_base_submitted",
               static_cast<double>(outcome.submitted));
  report->Layer("bench.failed_share",
                Ratio(outcome.aborted + outcome.failed, outcome.submitted),
                "share");
  report->Layer(
      "bench.blocking_share.latency_p50",
      Ratio(Median(submit) + Median(admit) + Median(execute) +
                Median(terminate),
            Median(tracer->DurationsUs("bench.process"))),
      "share");
}

}  // namespace tpmbench
