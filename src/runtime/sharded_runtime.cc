#include "runtime/sharded_runtime.h"

#include <filesystem>
#include <thread>
#include <utility>

#include "common/str_util.h"
#include "core/pred.h"
#include "core/recoverability.h"
#include "core/schedule.h"

namespace tpm {

/// Per-shard SchedulerObserver installed on the shard scheduler; fans the
/// callbacks into the runtime's observer list, tagged with the shard
/// index. Runs on the shard worker thread; the runtime serializes the
/// fan-in under observer_mu_ so concurrent shards never interleave inside
/// a RuntimeObserver.
class ShardedRuntime::ShardObserverRelay : public SchedulerObserver {
 public:
  ShardObserverRelay(ShardedRuntime* runtime, int shard)
      : runtime_(runtime), shard_(shard) {}

  void OnActivityCommitted(ProcessId pid, ActivityId act,
                           bool inverse) override {
    runtime_->RelayEvent([&](RuntimeObserver* o) {
      o->OnActivityCommitted(shard_, pid, act, inverse);
    });
  }
  void OnInvocationFailed(ProcessId pid, ActivityId act) override {
    runtime_->RelayEvent(
        [&](RuntimeObserver* o) { o->OnInvocationFailed(shard_, pid, act); });
  }
  void OnAlternativeTaken(ProcessId pid, ActivityId branch_point,
                          int group) override {
    runtime_->RelayEvent([&](RuntimeObserver* o) {
      o->OnAlternativeTaken(shard_, pid, branch_point, group);
    });
  }
  void OnProcessTerminated(ProcessId pid, ProcessOutcome outcome) override {
    // Agent first, outside observer_mu_ (lock order: agent mutex is never
    // taken under the relay mutex — the agent's inline handling can call
    // back into shards).
    runtime_->NotifyAgentTerminated(shard_, pid, outcome);
    runtime_->RelayEvent([&](RuntimeObserver* o) {
      o->OnProcessTerminated(shard_, pid, outcome);
    });
  }
  void OnCommitHeld(ProcessId pid) override {
    runtime_->NotifyAgentCommitHeld(shard_, pid);
    runtime_->RelayEvent(
        [&](RuntimeObserver* o) { o->OnCommitHeld(shard_, pid); });
  }

 private:
  ShardedRuntime* runtime_;
  int shard_;
};

ShardedRuntime::ShardedRuntime(ShardedRuntimeOptions options)
    : options_(std::move(options)) {}

ShardedRuntime::~ShardedRuntime() { (void)Stop(); }

Status ShardedRuntime::AddSubsystem(Subsystem* subsystem) {
  if (started_) {
    return Status::FailedPrecondition("AddSubsystem after Start");
  }
  if (subsystem == nullptr) {
    return Status::InvalidArgument("null subsystem");
  }
  for (const Subsystem* existing : subsystems_) {
    if (existing == subsystem) {
      return Status::AlreadyExists(
          StrCat("subsystem '", subsystem->name(), "' already added"));
    }
  }
  // Each service must have exactly one owning subsystem — the partition
  // assigns whole subsystems to shards by their services.
  for (ServiceId id : subsystem->services().AllIds()) {
    for (const Subsystem* existing : subsystems_) {
      if (existing->services().Has(id)) {
        return Status::AlreadyExists(
            StrCat("service ", id.value(), " of subsystem '",
                   subsystem->name(), "' is already offered by subsystem '",
                   existing->name(), "'"));
      }
    }
  }
  subsystems_.push_back(subsystem);
  return Status::OK();
}

Status ShardedRuntime::AddConflict(ServiceId a, ServiceId b) {
  if (started_) {
    return Status::FailedPrecondition("AddConflict after Start");
  }
  extra_conflicts_.emplace_back(a, b);
  return Status::OK();
}

Status ShardedRuntime::AddColocation(std::vector<ServiceId> group) {
  if (started_) {
    return Status::FailedPrecondition("AddColocation after Start");
  }
  if (group.size() < 2) {
    return Status::InvalidArgument(
        "a colocation group needs at least two services");
  }
  colocations_.push_back(std::move(group));
  return Status::OK();
}

Status ShardedRuntime::AddObserver(RuntimeObserver* observer) {
  if (started_) {
    return Status::FailedPrecondition("AddObserver after Start");
  }
  if (observer == nullptr) {
    return Status::InvalidArgument("null observer");
  }
  observers_.push_back(observer);
  return Status::OK();
}

Status ShardedRuntime::Start() {
  if (started_) return Status::FailedPrecondition("Start called twice");
  if (options_.num_shards < 1) {
    return Status::InvalidArgument(
        StrCat("num_shards must be >= 1, got ", options_.num_shards));
  }
  if (options_.log_mode == ShardLogMode::kFile && options_.wal_dir.empty()) {
    return Status::InvalidArgument("kFile log mode requires wal_dir");
  }

  // Union conflict spec over all subsystems: every service interned, every
  // derived (read/write + op-table) conflict declared, plus the explicit
  // extras. This is the spec the partitioner and router see; each shard's
  // scheduler re-derives its own local sub-spec from the subsystems
  // registered with it.
  union_spec_ = ConflictSpec();
  for (const Subsystem* subsystem : subsystems_) {
    subsystem->services().DeriveConflicts(&union_spec_);
  }
  for (const auto& [a, b] : extra_conflicts_) {
    if (union_spec_.IndexOf(a) < 0) {
      return Status::NotFound(
          StrCat("AddConflict: service ", a.value(), " not registered"));
    }
    if (union_spec_.IndexOf(b) < 0) {
      return Status::NotFound(
          StrCat("AddConflict: service ", b.value(), " not registered"));
    }
    union_spec_.AddConflict(a, b);
  }

  // Colocation: each subsystem's services share its store and lock table
  // and must be invoked by a single worker, so they form an implicit
  // group; user groups (tenant pinning etc.) are appended after.
  ColocationGroups groups;
  for (const Subsystem* subsystem : subsystems_) {
    std::vector<ServiceId> ids = subsystem->services().AllIds();
    if (ids.size() >= 2) groups.push_back(std::move(ids));
  }
  for (const auto& group : colocations_) {
    for (ServiceId id : group) {
      if (union_spec_.IndexOf(id) < 0) {
        return Status::NotFound(
            StrCat("AddColocation: service ", id.value(), " not registered"));
      }
    }
    groups.push_back(group);
  }

  TPM_ASSIGN_OR_RETURN(
      partition_,
      ComputeConflictPartition(union_spec_, options_.num_shards, groups));
  TPM_RETURN_IF_ERROR(VerifyPartition(union_spec_, partition_, groups));
  router_ = std::make_unique<ShardRouter>(&union_spec_, &partition_);

  // The WAL directory must exist before any shard or coordinator log
  // opens.
  if (options_.log_mode == ShardLogMode::kFile) {
    std::error_code ec;
    std::filesystem::create_directories(options_.wal_dir, ec);
    if (ec) {
      return Status::Unavailable(
          StrCat("cannot create wal_dir '", options_.wal_dir,
                 "': ", ec.message()));
    }
  }

  shards_.clear();
  relays_.clear();
  for (int i = 0; i < options_.num_shards; ++i) {
    RuntimeShard::Options shard_options;
    shard_options.index = i;
    shard_options.scheduler = options_.scheduler;
    shard_options.queue_capacity = options_.queue_capacity;
    shard_options.backpressure = options_.backpressure;
    shard_options.mode = options_.mode;
    shard_options.log_mode = options_.log_mode;
    if (options_.log_mode == ShardLogMode::kFile) {
      shard_options.wal_path = (std::filesystem::path(options_.wal_dir) /
                                StrCat("shard-", i, ".wal"))
                                   .string();
    }
    auto shard = std::make_unique<RuntimeShard>(std::move(shard_options));
    TPM_RETURN_IF_ERROR(shard->Init());
    shards_.push_back(std::move(shard));
  }

  // Register each subsystem with the scheduler of the shard owning its
  // services (all on one shard — its implicit colocation group).
  for (Subsystem* subsystem : subsystems_) {
    std::vector<ServiceId> ids = subsystem->services().AllIds();
    if (ids.empty()) {
      return Status::InvalidArgument(
          StrCat("subsystem '", subsystem->name(), "' offers no services"));
    }
    const int shard = partition_.ShardOfService(union_spec_, ids.front());
    if (shard < 0) {
      return Status::Internal(
          StrCat("no shard owns service ", ids.front().value()));
    }
    TPM_RETURN_IF_ERROR(
        shards_[shard]->scheduler()->RegisterSubsystem(subsystem));
  }
  // Extra conflicts also go to the owning shard's local scheduler spec;
  // the partition guarantees both endpoints landed on the same shard.
  for (const auto& [a, b] : extra_conflicts_) {
    const int shard = partition_.ShardOfService(union_spec_, a);
    shards_[shard]->scheduler()->AddConflict(a, b);
  }

  for (int i = 0; i < options_.num_shards; ++i) {
    relays_.push_back(std::make_unique<ShardObserverRelay>(this, i));
    shards_[i]->scheduler()->AddObserver(relays_.back().get());
  }

  // The coordination agent for spanning processes, with its own WAL
  // stream beside the shard WALs.
  CrossShardAgent::Options agent_options;
  agent_options.mode = options_.mode;
  agent_options.span_order = options_.span_order;
  agent_options.log_mode = options_.log_mode;
  if (options_.log_mode == ShardLogMode::kFile) {
    agent_options.wal_path =
        (std::filesystem::path(options_.wal_dir) / "coordinator.wal").string();
  }
  agent_options.crash_listener = options_.coordinator_crash_listener;
  agent_ = std::make_unique<CrossShardAgent>(std::move(agent_options),
                                             router_.get(), &shards_);
  TPM_RETURN_IF_ERROR(agent_->Init());

  for (auto& shard : shards_) shard->Start();
  started_ = true;
  return Status::OK();
}

Result<SubmitTicket> ShardedRuntime::Submit(const ProcessDef* def,
                                            int64_t param) {
  if (!started_.load() || stopped_.load()) {
    return Status::Unavailable("runtime is not running");
  }
  if (def == nullptr) return Status::InvalidArgument("null process def");
  RouterDecision decision = router_->Decide(*def);
  if (decision.kind == RouteKind::kRejected) {
    submissions_rejected_.fetch_add(1, std::memory_order_relaxed);
    return decision.error;
  }
  if (decision.kind == RouteKind::kSplit) {
    Result<SubmitTicket> ticket = agent_->Begin(def, param);
    if (!ticket.ok()) {
      submissions_rejected_.fetch_add(1, std::memory_order_relaxed);
      return ticket;
    }
    submissions_accepted_.fetch_add(1, std::memory_order_relaxed);
    return ticket;
  }
  const int shard = decision.shard;

  Submission submission;
  submission.def = def;
  submission.param = param;
  SubmitTicket ticket;
  ticket.shard = shard;
  ticket.pid = submission.result.get_future().share();
  Status pushed = shards_[shard]->EnqueueSubmission(std::move(submission));
  if (!pushed.ok()) {
    submissions_rejected_.fetch_add(1, std::memory_order_relaxed);
    return pushed;
  }
  submissions_accepted_.fetch_add(1, std::memory_order_relaxed);
  return ticket;
}

Status ShardedRuntime::Tick(int64_t rounds) {
  if (!started_ || stopped_) {
    return Status::FailedPrecondition("Tick on a runtime that is not running");
  }
  if (options_.mode != TickMode::kLockstep) {
    return Status::FailedPrecondition(
        "Tick is the lockstep driver; free-running shards self-drive");
  }
  for (int64_t round = 0; round < rounds; ++round) {
    // Barrier semantics: post round t to every shard, then wait for all
    // of them — no shard starts t+1 before every shard finished t.
    for (auto& shard : shards_) shard->PostRound();
    Status first_error = WaitShardCommands();
    ++lockstep_rounds_;
    // Deterministic agent turn: relay the round's queued shard events
    // (votes, terminals) and let the agent post its ops for round t+1.
    agent_->Pump();
    if (!first_error.ok()) return first_error;
  }
  return Status::OK();
}

Status ShardedRuntime::Drain(int64_t max_rounds) {
  if (!started_ || stopped_) {
    return Status::FailedPrecondition("Drain on a runtime that is not running");
  }
  if (options_.mode == TickMode::kLockstep) {
    for (int64_t round = 0; round < max_rounds; ++round) {
      agent_->Pump();
      bool all_idle = true;
      for (auto& shard : shards_) {
        // An errored shard is idle forever; report it instead.
        TPM_RETURN_IF_ERROR(shard->status());
        all_idle = all_idle && shard->IsIdle();
      }
      if (all_idle) {
        // A spanning process parked on a remote shard's prepare is BUSY,
        // not idle: quiescence additionally requires the agent drained.
        if (agent_->InFlightCount() == 0) return Status::OK();
        // Shards idle with spans in flight: either the agent's mailbox
        // still holds the resolving events (pumped next iteration) or the
        // coordinator failed sticky — surface that instead of spinning.
        TPM_RETURN_IF_ERROR(agent_->status());
      }
      TPM_RETURN_IF_ERROR(Tick(1));
    }
    return Status::FailedPrecondition(
        StrCat("Drain did not quiesce within ", max_rounds,
               " lockstep rounds"));
  }
  for (;;) {
    Status first_error;
    for (auto& shard : shards_) {
      Status status = shard->WaitIdle();
      if (!status.ok() && first_error.ok()) first_error = status;
    }
    if (!first_error.ok()) return first_error;
    // Shards idle but spans in flight: the agent is between posting ops
    // (a submission or a commit-release not yet picked up) — re-wait. A
    // sticky coordinator failure instead parks the held sub-processes
    // forever, so report it rather than block on idleness that cannot
    // come.
    if (agent_->InFlightCount() == 0) return Status::OK();
    TPM_RETURN_IF_ERROR(agent_->status());
    std::this_thread::yield();
  }
}

Status ShardedRuntime::Recover(
    const std::map<std::string, const ProcessDef*>& defs_by_name) {
  if (!started_ || stopped_) {
    return Status::FailedPrecondition(
        "Recover on a runtime that is not running");
  }
  // Coordinator log first: regenerate the sub-definitions of every
  // spanning process it references and collect the force-commit
  // directives for durably decided commits. The shard replays then treat
  // a directed in-doubt vote as committed and group-abort the rest.
  std::map<std::string, const ProcessDef*> all_defs = defs_by_name;
  TransactionalProcessScheduler::RecoverDirectives directives;
  std::map<std::string, SpanSubProjection> span_info;
  TPM_ASSIGN_OR_RETURN(CrossShardAgent::SpanRecoveryPlan span_plan,
                       agent_->RecoverScan(defs_by_name));
  for (const auto& [name, def] : span_plan.sub_defs) all_defs[name] = def;
  directives = std::move(span_plan.directives);
  span_info = agent_->ProjectionInfo();

  // Round 1 fans the replay out: every shard worker replays its own WAL
  // concurrently. The command runs on the worker thread, so the
  // scheduler's thread affinity holds. When the global check will run,
  // the worker also copies its recovered history into its slot.
  const bool verify = options_.verify_recovery;
  const bool verify_global = verify && !span_info.empty();
  std::vector<ProcessSchedule> histories(
      verify_global ? shards_.size() : 0);
  for (auto& shard : shards_) {
    const int index = shard->index();
    TransactionalProcessScheduler* scheduler = shard->scheduler();
    ProcessSchedule* slot =
        verify_global ? &histories[static_cast<size_t>(index)] : nullptr;
    shard->PostCommand([&all_defs, &directives, scheduler, slot, index] {
      Status replayed = scheduler->Recover(all_defs, &directives);
      if (!replayed.ok()) {
        return Status(replayed.code(), StrCat("shard ", index, ": ",
                                              replayed.message()));
      }
      if (slot != nullptr) *slot = scheduler->history();
      return Status::OK();
    });
  }
  TPM_RETURN_IF_ERROR(WaitShardCommands());
  // Presumed abort, made durable: every spanning process without a
  // decision record is now decided aborted (its votes were just rolled
  // back by the shard replays). This touches only the coordinator log.
  TPM_RETURN_IF_ERROR(agent_->FinishRecovery());
  if (!verify) return Status::OK();

  // Round 2: each shard self-checks its recovered history — PRED on the
  // full history, Proc-REC on its committed projection (the same pair of
  // criteria the chaos suites assert).
  for (auto& shard : shards_) {
    const int index = shard->index();
    TransactionalProcessScheduler* scheduler = shard->scheduler();
    shard->PostCommand([scheduler, index]() -> Status {
      TPM_ASSIGN_OR_RETURN(
          bool pred, IsPRED(scheduler->history(), scheduler->conflict_spec()));
      if (!pred) {
        return Status::Internal(
            StrCat("shard ", index, ": recovered history is not PRED"));
      }
      if (!AnalyzeCommittedRecoverability(scheduler->history(),
                                          scheduler->conflict_spec())
               .process_recoverable) {
        return Status::Internal(
            StrCat("shard ", index,
                   ": recovered committed projection is not Proc-REC"));
      }
      return Status::OK();
    });
  }
  // Meanwhile the global assertion (DESIGN.md §4h) runs here, on the
  // round-1 copies: merge the per-shard recovery histories —
  // reassembling every spanning process into one global process, which is
  // exactly where a half-committed span would surface — and check PRED +
  // Proc-REC on the union spec.
  Status global;
  if (verify_global) {
    std::vector<const ProcessSchedule*> history_ptrs;
    history_ptrs.reserve(histories.size());
    for (const ProcessSchedule& history : histories) {
      history_ptrs.push_back(&history);
    }
    global = VerifyGlobalProjection(history_ptrs, span_info, union_spec_);
  }
  TPM_RETURN_IF_ERROR(WaitShardCommands());
  return global;
}

Status ShardedRuntime::WaitShardCommands() {
  Status first_error;
  for (auto& shard : shards_) {
    Status status = shard->WaitCommandDone();
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

Status ShardedRuntime::Stop() {
  if (!started_.load() || stopped_.load()) {
    stopped_.store(started_.load());
    return Status::OK();
  }
  for (auto& shard : shards_) shard->Stop();
  // After the workers: pending agent ops died with them; fail the spans
  // whose first sub-process never got admitted.
  if (agent_ != nullptr) agent_->Shutdown();
  stopped_ = true;
  return Status::OK();
}

RuntimeStats ShardedRuntime::Stats() const {
  RuntimeStats stats;
  for (const auto& shard : shards_) {
    stats.per_shard.push_back(shard->StatsSnapshot());
  }
  for (const SchedulerStats& shard_stats : stats.per_shard) {
    stats.merged.MergeFrom(shard_stats);
  }
  stats.submissions_accepted =
      submissions_accepted_.load(std::memory_order_relaxed);
  stats.submissions_rejected =
      submissions_rejected_.load(std::memory_order_relaxed);
  stats.lockstep_rounds = lockstep_rounds_;
  if (agent_ != nullptr) {
    stats.spans_begun = agent_->spans_begun();
    stats.spans_committed = agent_->spans_committed();
    stats.spans_aborted = agent_->spans_aborted();
  }
  stats.queue_depths = QueueDepths();
  return stats;
}

std::vector<size_t> ShardedRuntime::QueueDepths() const {
  std::vector<size_t> depths;
  depths.reserve(shards_.size());
  for (const auto& shard : shards_) depths.push_back(shard->QueueDepth());
  return depths;
}

TransactionalProcessScheduler* ShardedRuntime::shard_scheduler(int shard) {
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) return nullptr;
  return shards_[shard]->scheduler();
}

RecoveryLog* ShardedRuntime::shard_log(int shard) {
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) return nullptr;
  return shards_[shard]->log();
}

SpanOutcome ShardedRuntime::SpanningOutcome(int64_t gsn) const {
  if (agent_ == nullptr) return SpanOutcome::kUnknown;
  return agent_->OutcomeOf(gsn);
}

Result<ProcessSchedule> ShardedRuntime::GlobalProjection() {
  if (!stopped_) {
    return Status::FailedPrecondition(
        "GlobalProjection before Stop (the shard schedulers must be "
        "quiesced)");
  }
  std::vector<const ProcessSchedule*> histories;
  histories.reserve(shards_.size());
  for (auto& shard : shards_) {
    histories.push_back(&shard->scheduler()->history());
  }
  return MergeGlobalProjection(
      histories, agent_ != nullptr
                     ? agent_->ProjectionInfo()
                     : std::map<std::string, SpanSubProjection>());
}

void ShardedRuntime::RelayEvent(
    const std::function<void(RuntimeObserver*)>& fn) {
  // Observers are fixed after Start, so the unlocked read is race-free.
  if (observers_.empty()) return;
  std::lock_guard<std::mutex> lock(observer_mu_);
  for (RuntimeObserver* observer : observers_) fn(observer);
}

void ShardedRuntime::NotifyAgentCommitHeld(int shard, ProcessId pid) {
  if (agent_ != nullptr) agent_->OnCommitHeld(shard, pid);
}

void ShardedRuntime::NotifyAgentTerminated(int shard, ProcessId pid,
                                           ProcessOutcome outcome) {
  if (agent_ != nullptr) agent_->OnProcessTerminated(shard, pid, outcome);
}

}  // namespace tpm
