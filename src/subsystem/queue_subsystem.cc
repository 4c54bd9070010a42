#include "subsystem/queue_subsystem.h"

#include <algorithm>
#include <utility>

#include "common/fingerprint.h"
#include "common/str_util.h"

namespace tpm {

QueueSubsystem::QueueSubsystem(SubsystemId id, std::string name)
    : AdtSubsystem(id, std::move(name), "queue") {}

Status QueueSubsystem::CreateQueue(const std::string& queue,
                                   int initial_tokens) {
  if (initial_tokens < 0) {
    return Status::InvalidArgument(
        StrCat("queue ", queue, ": negative initial token count"));
  }
  Queue& q = queues_[queue];
  for (int i = 0; i < initial_tokens; ++i) {
    q.tokens.push_back(next_token_++);
  }
  return Status::OK();
}

void QueueSubsystem::AddObject(const std::string& queue) {
  queues_.try_emplace(queue);
}

Status QueueSubsystem::RegisterEnqueueService(ServiceId id,
                                              const std::string& queue) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("queue.enq/", queue);
  def.op_kind = "queue.enq";
  def.inverse_op_kind = "queue.rm";
  def.commutes_with = {"queue.enq"};
  return RegisterOp(std::move(def), kEnq, queue);
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
  return RegisterOp(std::move(def), kDeq, queue);
}

Status QueueSubsystem::RegisterRemoveService(ServiceId id,
                                             const std::string& queue) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("queue.rm/", queue);
  def.op_kind = "queue.rm";
  def.inverse_op_kind = "queue.enq";
  // Commuting pairs arrive via enq's declaration plus perfect-closure.
  return RegisterOp(std::move(def), kRm, queue);
}

Status QueueSubsystem::RegisterRequeueService(ServiceId id,
                                              const std::string& queue) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("queue.req/", queue);
  def.op_kind = "queue.req";
  def.inverse_op_kind = "queue.deq";
  return RegisterOp(std::move(def), kReq, queue);
}

Status QueueSubsystem::RegisterLenService(ServiceId id,
                                          const std::string& queue) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("queue.len/", queue);
  def.effect_free = true;
  return RegisterOp(std::move(def), kLen, queue);
}

Status QueueSubsystem::Apply(const OpBinding& op, const ServiceRequest& request,
                             int64_t* ret, std::function<void()>* undo) {
  const std::string queue = op.object;
  Queue& q = queues_[queue];
  const std::pair<int64_t, int64_t> key{request.process.value(),
                                        request.activity.value()};
  switch (op.op) {
    case kEnq: {
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
    case kDeq: {
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
    case kRm: {
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
    case kReq: {
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
    case kLen: {
      *ret = static_cast<int64_t>(q.tokens.size());
      if (undo != nullptr) *undo = []() {};
      return Status::OK();
    }
  }
  return Status::Internal("unreachable queue op type");
}

bool QueueSubsystem::OpsCommuteLocally(int a, int b) const {
  if (a == kLen || b == kLen) return a == b;
  if (a == kDeq || a == kReq) return false;
  if (b == kDeq || b == kReq) return false;
  return true;  // enq/rm pairs
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

uint64_t QueueSubsystem::FoldState(uint64_t h) const {
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
  h = Fnv1aInt(h, static_cast<uint64_t>(empty_dequeues_));
  return h;
}

}  // namespace tpm
