#ifndef TPM_RUNTIME_SUBMISSION_QUEUE_H_
#define TPM_RUNTIME_SUBMISSION_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"

namespace tpm {

class ProcessDef;

/// What a full submission queue does to the next producer.
enum class BackpressurePolicy {
  /// Push blocks until the shard worker drains a slot (or the queue
  /// closes). Suited to free-running shards, where the worker drains
  /// continuously; in lockstep mode a blocked producer would wait on the
  /// tick driver, so size the queue for the batch instead.
  kBlock,
  /// Push fails immediately with ResourceExhausted; the caller sheds load.
  kReject,
};

/// One queued process submission. The worker fulfills `result` with the
/// shard-local ProcessId once the shard's scheduler admits the process
/// (or with the admission error).
///
/// Lifetime: the scheduler stores `def` for the whole life of the admitted
/// process (runtime state, history, recovery), so it must stay valid until
/// the runtime stops — not merely until the queue drains.
struct Submission {
  const ProcessDef* def = nullptr;
  int64_t param = 0;
  std::promise<Result<ProcessId>> result;
};

/// A routed submission: which shard took the process, and the shard-local
/// ProcessId once the worker admits it (shard-local pids are the
/// coordinates used with shard_scheduler(shard)->OutcomeOf and friends).
/// For a spanning process, `shard`/`pid` refer to the FIRST sub-process
/// in skeleton order and `gsn` is the global serial number the runtime's
/// SpanningOutcome accessor keys on (-1 for a single-shard process).
struct SubmitTicket {
  int shard = -1;
  int64_t gsn = -1;
  std::shared_future<Result<ProcessId>> pid;

  /// Blocks until the shard worker admitted (or refused) the process.
  Result<ProcessId> Await() { return pid.get(); }
};

/// Bounded multi-producer single-consumer queue between the concurrent
/// submission front-end and one shard worker. Producers are any threads
/// calling ShardedRuntime::Submit; the consumer is the shard's worker
/// thread, which drains in batches at tick boundaries. FIFO: admission
/// order equals push order, which is what makes lockstep runs replayable.
class SubmissionQueue {
 public:
  explicit SubmissionQueue(size_t capacity) : capacity_(capacity) {}

  SubmissionQueue(const SubmissionQueue&) = delete;
  SubmissionQueue& operator=(const SubmissionQueue&) = delete;

  /// Producer side. On kReject + full: ResourceExhausted. On closed:
  /// Unavailable (also for producers woken from a kBlock wait by Close).
  ///
  /// Blocked producers are admitted strictly in arrival order (ticketed
  /// wakeup): a producer parked on a full queue gets the next freed slot
  /// before any producer that called Push later, under either policy — a
  /// pending waiter counts as occupying the slot it is owed, so a kReject
  /// push cannot barge past it either.
  Status Push(Submission submission, BackpressurePolicy policy) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return Status::Unavailable("submission queue closed");
    const bool must_wait =
        items_.size() >= capacity_ || wait_head_ != wait_tail_;
    if (must_wait && policy == BackpressurePolicy::kBlock) {
      const uint64_t ticket = wait_tail_++;
      ++blocked_producers_;
      not_full_.wait(lock, [&] {
        return closed_ ||
               (wait_head_ == ticket && items_.size() < capacity_);
      });
      --blocked_producers_;
      if (closed_) return Status::Unavailable("submission queue closed");
      ++wait_head_;
      items_.push_back(std::move(submission));
      // Hand the wakeup on: the next ticket holder may already have room.
      not_full_.notify_all();
      return Status::OK();
    }
    if (must_wait) {
      return Status::ResourceExhausted("submission queue full");
    }
    items_.push_back(std::move(submission));
    return Status::OK();
  }

  /// Consumer side: removes and returns everything currently queued (FIFO
  /// order preserved), freeing capacity for blocked producers.
  std::vector<Submission> DrainAll() {
    std::vector<Submission> drained;
    {
      std::lock_guard<std::mutex> lock(mu_);
      drained.reserve(items_.size());
      while (!items_.empty()) {
        drained.push_back(std::move(items_.front()));
        items_.pop_front();
      }
    }
    if (!drained.empty()) not_full_.notify_all();
    return drained;
  }

  /// Rejects all future pushes and wakes blocked producers. Anything
  /// already queued stays drainable (the worker fails the leftovers'
  /// promises on shutdown).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
  }

  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.empty();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  /// Number of producers currently parked inside a kBlock Push. Test
  /// probe: lets a test wait until a producer is provably blocked before
  /// racing another push against its wakeup.
  size_t blocked_producers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_producers_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::deque<Submission> items_;
  bool closed_ = false;
  size_t blocked_producers_ = 0;
  // FIFO wakeup tickets: producers that must wait take wait_tail_++ and are
  // served when wait_head_ reaches their ticket. Close() abandons unserved
  // tickets (closed_ wakes and fails every waiter), which is fine — a
  // closed queue never serves tickets again.
  uint64_t wait_head_ = 0;
  uint64_t wait_tail_ = 0;
};

}  // namespace tpm

#endif  // TPM_RUNTIME_SUBMISSION_QUEUE_H_
