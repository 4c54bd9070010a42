#include "subsystem/queue_subsystem.h"

#include <algorithm>
#include <utility>

#include "common/fingerprint.h"
#include "common/str_util.h"

namespace tpm {

QueueSubsystem::QueueSubsystem(SubsystemId id, std::string name)
    : id_(id), name_(std::move(name)) {}

Status QueueSubsystem::CreateQueue(const std::string& queue,
                                   int initial_tokens) {
  if (initial_tokens < 0) {
    return Status::InvalidArgument(
        StrCat("queue ", queue, ": negative initial token count"));
  }
  Queue& q = EnsureQueue(queue);
  for (int i = 0; i < initial_tokens; ++i) {
    q.tokens.push_back(next_token_++);
  }
  return Status::OK();
}

QueueSubsystem::Queue& QueueSubsystem::EnsureQueue(const std::string& queue) {
  return queues_[queue];
}

Status QueueSubsystem::RegisterOp(ServiceDef def, OpType type,
                                  const std::string& queue) {
  def.read_set = {queue};
  if (type != OpType::kLen) def.write_set = {queue};
  // The registry requires a body, but this subsystem dispatches on the op
  // binding instead of executing bodies against a KvStore.
  def.body = [](KvStore*, const ServiceRequest&, int64_t*) {
    return Status::Internal("queue services are not body-executed");
  };
  TPM_RETURN_IF_ERROR(registry_.Register(def));
  EnsureQueue(queue);
  bindings_[def.id] = OpBinding{type, queue};
  return Status::OK();
}

Status QueueSubsystem::RegisterEnqueueService(ServiceId id,
                                              const std::string& queue) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("queue.enq/", queue);
  def.op_kind = "queue.enq";
  def.inverse_op_kind = "queue.rm";
  def.commutes_with = {"queue.enq"};
  return RegisterOp(std::move(def), OpType::kEnq, queue);
}

Status QueueSubsystem::RegisterDequeueService(ServiceId id,
                                              const std::string& queue) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("queue.deq/", queue);
  def.op_kind = "queue.deq";
  def.inverse_op_kind = "queue.req";
  // No commuting pairs: a dequeue races for the head with every other
  // queue update.
  return RegisterOp(std::move(def), OpType::kDeq, queue);
}

Status QueueSubsystem::RegisterRemoveService(ServiceId id,
                                             const std::string& queue) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("queue.rm/", queue);
  def.op_kind = "queue.rm";
  def.inverse_op_kind = "queue.enq";
  // Commuting pairs arrive via enq's declaration plus perfect-closure.
  return RegisterOp(std::move(def), OpType::kRm, queue);
}

Status QueueSubsystem::RegisterRequeueService(ServiceId id,
                                              const std::string& queue) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("queue.req/", queue);
  def.op_kind = "queue.req";
  def.inverse_op_kind = "queue.deq";
  return RegisterOp(std::move(def), OpType::kReq, queue);
}

Status QueueSubsystem::RegisterLenService(ServiceId id,
                                          const std::string& queue) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("queue.len/", queue);
  def.effect_free = true;
  return RegisterOp(std::move(def), OpType::kLen, queue);
}

Status QueueSubsystem::Apply(const OpBinding& op, const ServiceRequest& request,
                             int64_t* ret, std::function<void()>* undo) {
  Queue& q = EnsureQueue(op.queue);
  const std::string queue = op.queue;
  const std::pair<int64_t, int64_t> key{request.process.value(),
                                        request.activity.value()};
  switch (op.type) {
    case OpType::kEnq: {
      const int64_t token = next_token_++;
      q.tokens.push_back(token);
      enqueued_by_activity_[key] = token;
      *ret = token;
      if (undo != nullptr) {
        *undo = [this, queue, key, token]() {
          Queue& qq = queues_[queue];
          auto it =
              std::find(qq.tokens.begin(), qq.tokens.end(), token);
          if (it != qq.tokens.end()) qq.tokens.erase(it);
          enqueued_by_activity_.erase(key);
        };
      }
      return Status::OK();
    }
    case OpType::kDeq: {
      if (q.tokens.empty()) {
        ++empty_dequeues_;
        return Status::Aborted(StrCat("queue ", queue, " is empty"));
      }
      const int64_t token = q.tokens.front();
      q.tokens.pop_front();
      dequeued_by_activity_[key] = token;
      *ret = token;
      if (undo != nullptr) {
        *undo = [this, queue, key, token]() {
          queues_[queue].tokens.push_front(token);
          dequeued_by_activity_.erase(key);
        };
      }
      return Status::OK();
    }
    case OpType::kRm: {
      auto rec = enqueued_by_activity_.find(key);
      if (rec == enqueued_by_activity_.end()) {
        return Status::Aborted(
            StrCat("queue ", queue, ": no enqueued token of P", key.first,
                   "/a", key.second, " to remove (double compensation?)"));
      }
      const int64_t token = rec->second;
      auto it = std::find(q.tokens.begin(), q.tokens.end(), token);
      if (it == q.tokens.end()) {
        return Status::Aborted(StrCat("queue ", queue, ": token ", token,
                                      " already gone — cannot compensate"));
      }
      const int64_t pos = it - q.tokens.begin();
      q.tokens.erase(it);
      enqueued_by_activity_.erase(rec);
      *ret = token;
      if (undo != nullptr) {
        *undo = [this, queue, key, token, pos]() {
          Queue& qq = queues_[queue];
          const int64_t at =
              std::min<int64_t>(pos, static_cast<int64_t>(qq.tokens.size()));
          qq.tokens.insert(qq.tokens.begin() + at, token);
          enqueued_by_activity_[key] = token;
        };
      }
      return Status::OK();
    }
    case OpType::kReq: {
      auto rec = dequeued_by_activity_.find(key);
      if (rec == dequeued_by_activity_.end()) {
        return Status::Aborted(
            StrCat("queue ", queue, ": no dequeued token of P", key.first,
                   "/a", key.second, " to requeue (double compensation?)"));
      }
      const int64_t token = rec->second;
      q.tokens.push_front(token);
      dequeued_by_activity_.erase(rec);
      *ret = token;
      if (undo != nullptr) {
        *undo = [this, queue, key, token]() {
          Queue& qq = queues_[queue];
          if (!qq.tokens.empty() && qq.tokens.front() == token) {
            qq.tokens.pop_front();
          }
          dequeued_by_activity_[key] = token;
        };
      }
      return Status::OK();
    }
    case OpType::kLen: {
      *ret = static_cast<int64_t>(q.tokens.size());
      if (undo != nullptr) *undo = []() {};
      return Status::OK();
    }
  }
  return Status::Internal("unreachable queue op type");
}

bool QueueSubsystem::OpsCommuteLocally(OpType a, OpType b) {
  if (a == OpType::kLen || b == OpType::kLen) return a == b;
  if (a == OpType::kDeq || a == OpType::kReq) return false;
  if (b == OpType::kDeq || b == OpType::kReq) return false;
  return true;  // enq/rm pairs
}

bool QueueSubsystem::WouldBlock(ServiceId service) const {
  auto it = bindings_.find(service);
  if (it == bindings_.end()) return false;
  for (const auto& [tx, prep] : prepared_) {
    auto pit = bindings_.find(prep.service);
    if (pit == bindings_.end()) continue;
    if (pit->second.queue != it->second.queue) continue;
    if (!OpsCommuteLocally(it->second.type, pit->second.type)) return true;
  }
  return false;
}

Result<InvocationOutcome> QueueSubsystem::Invoke(
    ServiceId service, const ServiceRequest& request) {
  ++invocations_;
  auto it = bindings_.find(service);
  if (it == bindings_.end()) {
    return Status::NotFound(StrCat("unknown queue service ", service));
  }
  if (WouldBlock(service)) {
    return Status::Unavailable(
        StrCat("queue service ", service, " blocked by a prepared op"));
  }
  int64_t ret = 0;
  TPM_RETURN_IF_ERROR(Apply(it->second, request, &ret, nullptr));
  return InvocationOutcome{ret};
}

Result<PreparedHandle> QueueSubsystem::InvokePrepared(
    ServiceId service, const ServiceRequest& request) {
  ++invocations_;
  auto it = bindings_.find(service);
  if (it == bindings_.end()) {
    return Status::NotFound(StrCat("unknown queue service ", service));
  }
  if (WouldBlock(service)) {
    return Status::Unavailable(
        StrCat("queue service ", service, " blocked by a prepared op"));
  }
  int64_t ret = 0;
  std::function<void()> undo;
  TPM_RETURN_IF_ERROR(Apply(it->second, request, &ret, &undo));
  // Executed against live state (commuting ops cannot observe the
  // difference; non-commuting ones are blocked above until resolution);
  // abort reverses it via the captured undo.
  TxId tx(next_tx_++);
  prepared_[tx] = PreparedOp{service, std::move(undo)};
  return PreparedHandle{tx, ret};
}

Status QueueSubsystem::CommitPrepared(TxId tx) {
  auto it = prepared_.find(tx);
  if (it == prepared_.end()) {
    return Status::NotFound(StrCat("unknown prepared queue tx ", tx));
  }
  prepared_.erase(it);
  return Status::OK();
}

Status QueueSubsystem::AbortPrepared(TxId tx) {
  auto it = prepared_.find(tx);
  if (it == prepared_.end()) {
    return Status::NotFound(StrCat("unknown prepared queue tx ", tx));
  }
  it->second.undo();
  prepared_.erase(it);
  return Status::OK();
}

Status QueueSubsystem::AbortAllPrepared() {
  // Presumed abort on recovery: undo in reverse prepare order (LIFO).
  for (auto it = prepared_.rbegin(); it != prepared_.rend(); ++it) {
    it->second.undo();
  }
  prepared_.clear();
  return Status::OK();
}

void QueueSubsystem::OnProcessResolved(ProcessId process, bool /*committed*/) {
  // The process can no longer compensate: its token bookkeeping is dead.
  const int64_t pid = process.value();
  auto drop = [pid](std::map<std::pair<int64_t, int64_t>, int64_t>& m) {
    for (auto it = m.lower_bound({pid, INT64_MIN});
         it != m.end() && it->first.first == pid;) {
      it = m.erase(it);
    }
  };
  drop(enqueued_by_activity_);
  drop(dequeued_by_activity_);
}

int64_t QueueSubsystem::LengthOf(const std::string& queue) const {
  auto it = queues_.find(queue);
  return it == queues_.end() ? 0
                             : static_cast<int64_t>(it->second.tokens.size());
}

std::map<std::string, std::deque<int64_t>> QueueSubsystem::Snapshot() const {
  std::map<std::string, std::deque<int64_t>> snapshot;
  for (const auto& [name, q] : queues_) snapshot[name] = q.tokens;
  return snapshot;
}

Status QueueSubsystem::CheckInvariants() const {
  std::set<int64_t> seen;
  for (const auto& [name, q] : queues_) {
    for (int64_t token : q.tokens) {
      if (token <= 0 || token >= next_token_) {
        return Status::Internal(StrCat("queue ", name, ": token ", token,
                                       " outside the issued range"));
      }
      if (!seen.insert(token).second) {
        return Status::Internal(
            StrCat("queue ", name, ": duplicate token ", token,
                   " (a compensation or recovery replayed an effect)"));
      }
    }
  }
  for (const auto& [key, token] : dequeued_by_activity_) {
    if (seen.count(token) > 0) {
      return Status::Internal(
          StrCat("token ", token, " recorded as dequeued by P", key.first,
                 " but still present in a queue"));
    }
  }
  return Status::OK();
}

uint64_t QueueSubsystem::StateFingerprint() const {
  uint64_t h = kFnv1aOffsetBasis;
  for (const auto& [name, q] : queues_) {
    h = Fnv1a(h, name);
    for (int64_t token : q.tokens) {
      h = Fnv1aInt(h, static_cast<uint64_t>(token));
    }
  }
  auto fold_bookkeeping =
      [&h](const std::map<std::pair<int64_t, int64_t>, int64_t>& by_activity) {
        for (const auto& [key, token] : by_activity) {
          h = Fnv1aInt(h, static_cast<uint64_t>(key.first));
          h = Fnv1aInt(h, static_cast<uint64_t>(key.second));
          h = Fnv1aInt(h, static_cast<uint64_t>(token));
        }
      };
  fold_bookkeeping(enqueued_by_activity_);
  fold_bookkeeping(dequeued_by_activity_);
  h = Fnv1aInt(h, static_cast<uint64_t>(next_token_));
  h = Fnv1aInt(h, static_cast<uint64_t>(next_tx_));
  h = Fnv1aInt(h, static_cast<uint64_t>(invocations_));
  h = Fnv1aInt(h, static_cast<uint64_t>(empty_dequeues_));
  return h;
}

}  // namespace tpm
