#ifndef TPM_SUBSYSTEM_QUEUE_SUBSYSTEM_H_
#define TPM_SUBSYSTEM_QUEUE_SUBSYSTEM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/ids.h"
#include "common/status.h"
#include "subsystem/adt_subsystem.h"

namespace tpm {

/// Semantic FIFO-queue subsystem: named queues of integer tokens with
/// ADT-level commutativity declared through the ServiceDef op metadata.
///
/// Operation kinds and their commutativity table:
///
///   queue.enq — appends a fresh token; two enqueues commute (§3.2: the
///               tokens both end up in the queue, and the return values —
///               each its own token — are order-independent; the ADT's
///               clients are agnostic to the relative order of concurrent
///               producers).
///   queue.deq — removes the head token; conflicts with everything: a
///               concurrent enq can change which token deq returns when the
///               queue runs dry, and two deqs trivially race for the head.
///   queue.rm  — remove-by-token, the compensation of an enq (Def. 2: the
///               specific token the enq appended is withdrawn, wherever it
///               sits in the queue). By perfect-closure it commutes exactly
///               where enq does.
///   queue.req — requeue-at-front, the compensation of a deq: puts the
///               dequeued token back at the head, restoring FIFO order.
///               Conflicts like deq does.
///
/// Each process's enqueued/dequeued tokens are remembered per (process,
/// activity) so the compensating rm/req — invoked with the same activity id
/// as the forward operation — finds its token without the scheduler
/// plumbing return values into compensation parameters. A compensation
/// whose token is missing (double compensation, or compensation without a
/// forward op) fails kAborted: silently succeeding would mask exactly the
/// recovery bugs the chaos tests exist to catch.
///
/// Invocation and the prepared state come from the AdtSubsystem core.
/// Queue state survives a scheduler crash (subsystems are the durable
/// periphery); prepared transactions are rolled back by AbortAllPrepared
/// during recovery (presumed abort), and per-process token bookkeeping is
/// dropped when the scheduler reports the process resolved.
class QueueSubsystem : public AdtSubsystem {
 public:
  QueueSubsystem(SubsystemId id, std::string name);

  /// Creates a queue pre-seeded with `initial_tokens` fresh tokens (so
  /// consumer-heavy workloads don't dry-run the queue immediately).
  Status CreateQueue(const std::string& queue, int initial_tokens = 0);

  /// Registers enqueue / dequeue / remove-by-token (compensates enqueue) /
  /// requeue-at-front (compensates dequeue) services on `queue` (created on
  /// demand, empty).
  Status RegisterEnqueueService(ServiceId id, const std::string& queue);
  Status RegisterDequeueService(ServiceId id, const std::string& queue);
  Status RegisterRemoveService(ServiceId id, const std::string& queue);
  Status RegisterRequeueService(ServiceId id, const std::string& queue);
  /// Effect-free length query (no op binding).
  Status RegisterLenService(ServiceId id, const std::string& queue);

  void OnProcessResolved(ProcessId process, bool committed) override;

  int64_t LengthOf(const std::string& queue) const;
  /// Queue contents front-to-back (state fingerprinting in crash tests).
  std::map<std::string, std::deque<int64_t>> Snapshot() const;

  /// The ADT invariants checked after every chaos/crash recovery: no
  /// duplicate token within or across queues, and every live token is
  /// accounted for exactly once (token consistency).
  Status CheckInvariants() const;

  int64_t empty_dequeues() const { return empty_dequeues_; }

 private:
  enum OpType { kEnq, kDeq, kRm, kReq, kLen };

  struct Queue {
    std::deque<int64_t> tokens;
  };

  void AddObject(const std::string& queue) override;
  Status Apply(const OpBinding& op, const ServiceRequest& request,
               int64_t* ret, std::function<void()>* undo) override;
  /// enq/rm pairs commute; deq and req conflict with every update, and
  /// length queries conservatively conflict with every update.
  bool OpsCommuteLocally(int a, int b) const override;
  uint64_t FoldState(uint64_t h) const override;

  std::map<std::string, Queue> queues_;
  /// Token a process's activity enqueued (for rm) or dequeued (for req),
  /// keyed by (process, activity) — the compensation reuses the forward
  /// activity's id.
  std::map<std::pair<int64_t, int64_t>, int64_t> enqueued_by_activity_;
  std::map<std::pair<int64_t, int64_t>, int64_t> dequeued_by_activity_;
  int64_t next_token_ = 1;
  int64_t empty_dequeues_ = 0;
};

}  // namespace tpm

#endif  // TPM_SUBSYSTEM_QUEUE_SUBSYSTEM_H_
