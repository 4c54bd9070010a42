#include "drills.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/pred.h"
#include "core/recoverability.h"
#include "core/schedule.h"

namespace tpmbench {

namespace {

/// One crash: the world that survives it, the WAL it left, and what was
/// decided before the cut.
struct Crash {
  tpm::Status status = tpm::Status::OK();
  std::unique_ptr<World> world;
  std::string wal_dir;
  double wal_bytes = 0;
  int64_t spanning = 0;
  struct Terminated {
    int shard;
    tpm::ProcessId pid;
    tpm::ProcessOutcome outcome;
  };
  std::vector<Terminated> terminated;
  std::map<int64_t, tpm::SpanOutcome> decided_spans;
};

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

tpm::ShardedRuntimeOptions CrashOptions(const std::string& wal_dir) {
  tpm::ShardedRuntimeOptions options;
  options.num_shards = kShards;
  options.mode = tpm::TickMode::kLockstep;
  options.queue_capacity = 4096;
  options.log_mode = tpm::ShardLogMode::kFile;
  options.wal_dir = wal_dir;
  options.verify_recovery = true;
  return options;
}

/// The restart runs free, like a serving runtime; the partition, and so
/// each shard's WAL, does not depend on the mode.
tpm::ShardedRuntimeOptions RestartOptions(const std::string& wal_dir,
                                          bool verify) {
  tpm::ShardedRuntimeOptions options = CrashOptions(wal_dir);
  options.mode = tpm::TickMode::kFreeRunning;
  options.verify_recovery = verify;
  return options;
}

uint64_t DrillSeed(const Args& args, int drill) {
  return args.seed * 1000 + static_cast<uint64_t>(drill);
}

/// Builds drill k's world, submits its seeded mix, drives the lockstep
/// rounds and stops without draining.
std::unique_ptr<Crash> MakeCrash(
    const Args& args,
    const std::function<std::unique_ptr<World>(int)>& make_world, int drill,
    const DrillConfig& config, const std::string& tag) {
  auto c = std::make_unique<Crash>();
  c->wal_dir = FreshDir(args, tag);
  c->world = make_world(drill);
  if (c->wal_dir.empty() || !c->world->ok()) {
    c->status = tpm::Status::Internal("crash world or WAL directory");
    return c;
  }
  ProcessRecorder recorder(kShards, 1024, false);
  tpm::ShardedRuntime runtime(CrashOptions(c->wal_dir));
  c->status = runtime.AddObserver(&recorder);
  if (c->status.ok()) c->status = c->world->Register(&runtime);
  if (c->status.ok()) c->status = runtime.Start();

  tpm::Rng rng(DrillSeed(args, drill));
  std::vector<tpm::SubmitTicket> tickets;
  for (int i = 0; i < config.processes && c->status.ok(); ++i) {
    tpm::Result<tpm::SubmitTicket> ticket =
        runtime.Submit(c->world->Next(&rng).def);
    c->status = ticket.status();
    if (ticket.ok()) tickets.push_back(std::move(*ticket));
  }
  if (c->status.ok()) c->status = runtime.Tick(config.ticks);
  // The crash: stop without draining.
  const tpm::Status stopped = runtime.Stop();
  if (c->status.ok()) c->status = stopped;
  if (!c->status.ok()) return c;

  for (tpm::SubmitTicket& ticket : tickets) {
    if (ticket.gsn >= 0) {
      ++c->spanning;
      const tpm::SpanOutcome span = runtime.SpanningOutcome(ticket.gsn);
      if (span == tpm::SpanOutcome::kCommitted ||
          span == tpm::SpanOutcome::kAborted) {
        c->decided_spans[ticket.gsn] = span;
      }
      continue;
    }
    tpm::Result<tpm::ProcessId> pid = ticket.Await();
    if (!pid.ok()) continue;  // never admitted before the cut
    const ProcessRecorder::Entry* entry = recorder.Find(ticket.shard, *pid);
    if (entry != nullptr) {
      c->terminated.push_back({ticket.shard, *pid, entry->outcome});
    }
  }
  c->wal_bytes = DirBytes(c->wal_dir);
  Heartbeat();
  return c;
}

void ReportRestartGate(const Restart& r, Report* report) {
  report->Gate(r.status.ok(), "restart: Start + Recover + probe succeed (" +
                                  r.status.ToString() + ")");
  report->Gate(r.probe_committed, "restart: probe process commits");
}

/// Gates a recovered, stopped runtime against its crash: outcomes decided
/// before the cut are kept, GlobalProjection succeeds, the world's
/// invariants hold. With `analyze`, times AnalyzePRED and
/// AnalyzeProcessRecoverability over every recovered history.
void CheckRecovered(tpm::ShardedRuntime* runtime, const Crash& crash,
                    bool analyze, Tracer* tracer, RecoveryFigures* figures,
                    Report* report) {
  bool outcomes_kept = true;
  for (const Crash::Terminated& t : crash.terminated) {
    if (runtime->shard_scheduler(t.shard)->OutcomeOf(t.pid) != t.outcome) {
      outcomes_kept = false;
    }
  }
  for (const auto& [gsn, outcome] : crash.decided_spans) {
    if (runtime->SpanningOutcome(gsn) != outcome) outcomes_kept = false;
  }
  report->Gate(outcomes_kept,
               "every process decided before the cut keeps its outcome");
  size_t events = 0;
  for (int s = 0; s < runtime->num_shards(); ++s) {
    events += runtime->shard_scheduler(s)->history().size();
  }
  report->Meta("recovered_history_events", static_cast<double>(events));

  const int64_t projection_start = NowNs();
  tpm::Result<tpm::ProcessSchedule> global = runtime->GlobalProjection();
  const int64_t projection_end = NowNs();
  report->Gate(global.ok(),
               "GlobalProjection succeeds: " + global.status().ToString());
  const tpm::Status invariants = crash.world->CheckInvariants();
  report->Gate(invariants.ok(), "world invariants: " + invariants.ToString());
  if (!analyze || !global.ok()) return;
  tracer->Add("runtime.global_projection", projection_start, projection_end);
  figures->global_projection_s =
      static_cast<double>(projection_end - projection_start) / 1e9;

  // The analyzers, re-run by the benchmark on what Recover verifies: each
  // shard's history (the shards verify in parallel) and, when spanning
  // processes ran, the global projection after them.
  std::vector<std::pair<const tpm::ProcessSchedule*, const tpm::ConflictSpec*>>
      histories;
  for (int s = 0; s < runtime->num_shards(); ++s) {
    tpm::TransactionalProcessScheduler* scheduler = runtime->shard_scheduler(s);
    histories.emplace_back(&scheduler->history(), &scheduler->conflict_spec());
  }
  if (crash.spanning > 0) {
    histories.emplace_back(&*global, &runtime->union_spec());
  }
  bool verified = true;
  double slowest_shard_s = 0;
  for (size_t h = 0; h < histories.size(); ++h) {
    const auto& [history, spec] = histories[h];
    const int64_t pred_start = NowNs();
    tpm::Result<tpm::PredOutcome> pred = tpm::AnalyzePRED(*history, *spec);
    const int64_t pred_end = NowNs();
    const tpm::ProcRecOutcome procrec = tpm::AnalyzeProcessRecoverability(
        tpm::CommittedProjection(*history), *spec);
    const int64_t procrec_end = NowNs();
    tracer->Add("core.pred_verify", pred_start, pred_end);
    tracer->Add("core.procrec_verify", pred_end, procrec_end);
    figures->pred_verify_s +=
        static_cast<double>(pred_end - pred_start) / 1e9;
    figures->procrec_verify_s +=
        static_cast<double>(procrec_end - pred_end) / 1e9;
    const double took = static_cast<double>(procrec_end - pred_start) / 1e9;
    if (static_cast<int>(h) < runtime->num_shards()) {
      slowest_shard_s = std::max(slowest_shard_s, took);
    } else {
      figures->verify_path_s += took;
    }
    Heartbeat();
    verified = verified && pred.ok() && pred->prefix_reducible &&
               procrec.process_recoverable;
  }
  figures->verify_path_s += slowest_shard_s;
  report->Gate(verified, "recovered histories are PRED and Proc-REC");
}

void ReportRecovery(const RecoveryFigures& f, Report* report) {
  const double recovery = Median(f.total_s);
  report->EndToEnd("recovery_s", recovery, "s");
  report->Meta("restarts", static_cast<double>(f.total_s.size()));
  report->Layer("runtime.start_s", Median(f.start_s), "s");
  report->Layer("runtime.global_projection_s", f.global_projection_s, "s");
  report->Layer("core.pred_verify_s", f.pred_verify_s, "s");
  report->Layer("core.procrec_verify_s", f.procrec_verify_s, "s");
  report->Layer("log.replay_s", f.replay_s, "s");
  report->Layer("bench.blocking_share.recovery",
                Ratio(Median(f.start_s) + f.replay_s + f.verify_path_s +
                          Median(f.probe_s),
                      recovery),
                "share");
}

}  // namespace

RecoveryDrills::RecoveryDrills(
    const Args& args, std::function<std::unique_ptr<World>(int)> make_world,
    const DrillConfig& config, Tracer* tracer, Report* report)
    : args_(args),
      make_world_(std::move(make_world)),
      config_(config),
      tracer_(tracer),
      report_(report) {
  report->Meta("crash_cut",
               tpm::StrCat(config.processes, " submissions, ", config.ticks,
                           " lockstep ticks, stop without drain; ",
                           config.drills, " drills, file WAL, "
                           "verify_recovery on"));
}

void RecoveryDrills::Run(int count) {
  for (; count > 0 && next_ < config_.drills && !failed_; --count, ++next_) {
    const int k = next_;
    // Regenerating a crashed world is not timed as recovery.
    const std::unique_ptr<Crash> crash =
        MakeCrash(args_, make_world_, k, config_, tpm::StrCat("crash", k));
    report_->Gate(crash->status.ok(), "crash: " + crash->status.ToString());
    failed_ = !crash->status.ok();
    if (failed_) return;
    if (k == 0) {
      first_wal_bytes_ = crash->wal_bytes;
      report_->Meta("crashed_wal_bytes", first_wal_bytes_);
      report_->Meta("crashed_spanning", static_cast<double>(crash->spanning));
      report_->Meta("terminated_before_cut",
                    static_cast<double>(crash->terminated.size()));
    }
    Restart restart = TimedRestart(RestartOptions(crash->wal_dir, true),
                                   crash->world.get(), 4096, tracer_);
    ReportRestartGate(restart, report_);
    failed_ = !restart.status.ok();
    if (failed_) return;
    figures_.total_s.push_back(restart.total_s);
    figures_.start_s.push_back(restart.start_s);
    figures_.probe_s.push_back(restart.probe_s);
    restart.runtime->Stop();
    CheckRecovered(restart.runtime.get(), *crash,
                   tracer_->enabled() && k == 0, tracer_, &figures_, report_);
    RemoveDir(crash->wal_dir);
  }
}

void RecoveryDrills::Finish() {
  if (failed_) return;
  // The same seed must leave the same crashed WAL: regenerate drill 0.
  const std::unique_ptr<Crash> again =
      MakeCrash(args_, make_world_, 0, config_, "again");
  report_->Gate(again->status.ok() && again->wal_bytes == first_wal_bytes_,
                "the same seed leaves a crashed WAL of the same size");
  if (tracer_->enabled() && again->status.ok()) {
    // Bare replay: the same crash recovered without verification.
    Restart replay = TimedRestart(RestartOptions(again->wal_dir, false),
                                  again->world.get(), 64, tracer_);
    ReportRestartGate(replay, report_);
    tracer_->Add("log.replay", replay.recover_begin_ns, replay.recover_end_ns);
    figures_.replay_s = replay.recover_s;
    if (replay.runtime != nullptr) replay.runtime->Stop();
  }
  RemoveDir(again->wal_dir);
  ReportRecovery(figures_, report_);
}

}  // namespace tpmbench
