#include "runtime/shard.h"

#include <utility>
#include <vector>

#include "common/str_util.h"
#include "log/file_backend.h"

namespace tpm {

RuntimeShard::RuntimeShard(Options options)
    : options_(std::move(options)), queue_(options_.queue_capacity) {}

RuntimeShard::~RuntimeShard() { Stop(); }

Status RuntimeShard::Init() {
  switch (options_.log_mode) {
    case ShardLogMode::kNone:
      break;
    case ShardLogMode::kMemory:
      log_ = std::make_unique<RecoveryLog>(/*synchronous=*/true);
      break;
    case ShardLogMode::kFile: {
      TPM_ASSIGN_OR_RETURN(auto backend,
                           FileStorageBackend::Open(options_.wal_path));
      log_ = std::make_unique<RecoveryLog>(std::move(backend),
                                           /*synchronous=*/true);
      break;
    }
  }
  SchedulerOptions scheduler_options = options_.scheduler;
  scheduler_options.clock = &clock_;
  scheduler_ = std::make_unique<TransactionalProcessScheduler>(
      scheduler_options, log_.get());
  return Status::OK();
}

void RuntimeShard::Start() {
  // Hand ownership from the setup thread (which registered subsystems and
  // observers) to the worker; the worker's first scheduler call rebinds
  // the affinity guard, and the thread construction provides the
  // happens-before edge.
  scheduler_->ReleaseThreadAffinity();
  worker_ = std::thread([this] { WorkerLoop(); });
}

Status RuntimeShard::EnqueueSubmission(Submission submission) {
  TPM_RETURN_IF_ERROR(
      queue_.Push(std::move(submission), options_.backpressure));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Wake a free-running worker; in lockstep the next round command
    // drains the queue.
  }
  cv_worker_.notify_all();
  return Status::OK();
}

void RuntimeShard::PostAgentOp(std::function<void()> op) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    agent_ops_.push_back(std::move(op));
  }
  cv_worker_.notify_all();
}

void RuntimeShard::PostCommand(std::function<Status()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    command_ = std::move(fn);
    command_done_ = false;
  }
  cv_worker_.notify_all();
}

Status RuntimeShard::WaitCommandDone() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_client_.wait(lock, [&] { return command_done_ || stopped_; });
  if (!command_done_) {
    return Status::Unavailable(
        StrCat("shard ", options_.index, " stopped before the command ran"));
  }
  return command_status_;
}

void RuntimeShard::PostRound() {
  PostCommand([this]() -> Status {
    bool had_work;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_.ok()) return error_;
      had_work = has_work_;
    }
    const bool has_work = RunOnePass(had_work);
    std::lock_guard<std::mutex> lock(mu_);
    has_work_ = has_work;
    return error_;
  });
}

Status RuntimeShard::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_client_.wait(lock, [&] {
    if (!error_.ok() || stopped_) return true;
    return !busy_ && !has_work_ && queue_.empty() && agent_ops_.empty();
  });
  return error_;
}

bool RuntimeShard::IsIdle() {
  std::lock_guard<std::mutex> lock(mu_);
  return !busy_ && !has_work_ && queue_.empty() && agent_ops_.empty();
}

SchedulerStats RuntimeShard::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_snapshot_;
}

Status RuntimeShard::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

void RuntimeShard::Stop() {
  if (!worker_.joinable()) return;
  queue_.Close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_worker_.notify_all();
  worker_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_client_.notify_all();
}

void RuntimeShard::RecordError(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (error_.ok()) {
    error_ = Status(status.code(),
                    StrCat("shard ", options_.index, ": ", status.message()));
  }
}

void RuntimeShard::PublishStats() {
  SchedulerStats snapshot = scheduler_->stats();  // worker owns the scheduler
  std::lock_guard<std::mutex> lock(mu_);
  stats_snapshot_ = snapshot;
}

bool RuntimeShard::RunOnePass(bool had_work) {
  // Agent ops first: they may submit sub-processes or release held
  // commits, and the pass below should see their effects. Run outside
  // mu_ (they take the agent's lock; the agent may post to other shards).
  std::deque<std::function<void()>> ops;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ops.swap(agent_ops_);
  }
  for (std::function<void()>& op : ops) op();
  bool admitted = false;
  for (Submission& submission : queue_.DrainAll()) {
    Result<ProcessId> pid =
        scheduler_->Submit(submission.def, submission.param);
    admitted = admitted || pid.ok();
    submission.result.set_value(std::move(pid));
  }
  bool has_work = had_work || admitted || !ops.empty();
  if (has_work) {
    Result<bool> more = scheduler_->Step();
    if (!more.ok()) {
      RecordError(more.status());
      has_work = false;
    } else {
      has_work = *more;
    }
  }
  PublishStats();
  return has_work;
}

void RuntimeShard::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_worker_.wait(lock, [&] {
      if (stop_requested_ || command_ != nullptr) return true;
      // Lockstep passes arrive as round commands; a sticky error leaves
      // only commands and stop.
      if (options_.mode == TickMode::kLockstep || !error_.ok()) return false;
      return has_work_ || !queue_.empty() || !agent_ops_.empty();
    });
    if (command_ != nullptr) {
      std::function<Status()> command = std::move(command_);
      command_ = nullptr;
      lock.unlock();
      Status status = command();
      PublishStats();
      lock.lock();
      command_status_ = status;
      command_done_ = true;
      cv_client_.notify_all();
      continue;
    }
    if (stop_requested_) break;
    const bool had_work = has_work_;
    busy_ = true;
    lock.unlock();
    const bool has_work = RunOnePass(had_work);
    lock.lock();
    busy_ = false;
    has_work_ = has_work;
    if (!error_.ok() || (!has_work_ && queue_.empty())) {
      cv_client_.notify_all();  // idle waiters
    }
  }
  lock.unlock();
  // Fail whatever was still queued: the runtime is stopping without
  // draining (kill semantics), and a promise must never be dropped unset.
  for (Submission& submission : queue_.DrainAll()) {
    submission.result.set_value(Status::Unavailable(
        StrCat("shard ", options_.index, " stopped before admission")));
  }
  // Hand the quiesced scheduler back: join() gives the inspecting thread
  // its happens-before edge.
  scheduler_->ReleaseThreadAffinity();
}

}  // namespace tpm
