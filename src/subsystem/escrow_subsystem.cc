#include "subsystem/escrow_subsystem.h"

#include <algorithm>
#include <utility>

#include "common/fingerprint.h"
#include "common/str_util.h"

namespace tpm {

EscrowSubsystem::EscrowSubsystem(SubsystemId id, std::string name)
    : id_(id), name_(std::move(name)) {}

Status EscrowSubsystem::CreateCounter(const std::string& counter,
                                      int64_t initial, int64_t low_bound) {
  if (initial < low_bound) {
    return Status::InvalidArgument(
        StrCat("counter ", counter, " initial balance ", initial,
               " below low bound ", low_bound));
  }
  Counter& c = EnsureCounter(counter);
  c.balance = initial;
  c.low_bound = low_bound;
  return Status::OK();
}

EscrowSubsystem::Counter& EscrowSubsystem::EnsureCounter(
    const std::string& counter) {
  return counters_[counter];
}

Status EscrowSubsystem::RegisterOp(ServiceDef def, OpType type,
                                   const std::string& counter,
                                   int64_t amount) {
  if (amount <= 0) {
    return Status::InvalidArgument(
        StrCat("service ", def.name, ": non-positive amount ", amount));
  }
  def.read_set = {counter};
  if (type != OpType::kRead) def.write_set = {counter};
  // The registry requires a body, but this subsystem dispatches on the op
  // binding instead of executing bodies against a KvStore.
  def.body = [](KvStore*, const ServiceRequest&, int64_t*) {
    return Status::Internal("escrow services are not body-executed");
  };
  TPM_RETURN_IF_ERROR(registry_.Register(def));
  EnsureCounter(counter);
  bindings_[def.id] = OpBinding{type, counter, amount};
  return Status::OK();
}

Status EscrowSubsystem::RegisterIncService(ServiceId id,
                                           const std::string& counter,
                                           int64_t amount) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("escrow.inc/", counter);
  def.op_kind = "escrow.inc";
  def.inverse_op_kind = "escrow.dec";
  def.commutes_with = {"escrow.inc", "escrow.dec", "escrow.withdraw"};
  return RegisterOp(std::move(def), OpType::kInc, counter, amount);
}

Status EscrowSubsystem::RegisterDecService(ServiceId id,
                                           const std::string& counter,
                                           int64_t amount) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("escrow.dec/", counter);
  def.op_kind = "escrow.dec";
  def.inverse_op_kind = "escrow.inc";
  // Commuting pairs arrive via inc's declarations plus perfect-closure.
  return RegisterOp(std::move(def), OpType::kDec, counter, amount);
}

Status EscrowSubsystem::RegisterWithdrawService(ServiceId id,
                                                const std::string& counter,
                                                int64_t amount) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("escrow.withdraw/", counter);
  def.op_kind = "escrow.withdraw";
  // No inverse: withdraws sit at non-compensatable positions (pivot /
  // retriable). Commutativity with inc/dec is declared from the inc side;
  // withdraw/withdraw stays a conflict.
  return RegisterOp(std::move(def), OpType::kWithdraw, counter, amount);
}

Status EscrowSubsystem::RegisterReadService(ServiceId id,
                                            const std::string& counter) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("escrow.read/", counter);
  def.effect_free = true;
  return RegisterOp(std::move(def), OpType::kRead, counter, 1);
}

Status EscrowSubsystem::Apply(const OpBinding& op, Counter& c,
                              const ServiceRequest& request, int64_t* ret,
                              std::function<void()>* undo) {
  const int64_t a = request.param == 0 ? op.amount : request.param;
  if (a <= 0) {
    return Status::InvalidArgument(StrCat("non-positive amount ", a));
  }
  const int64_t pid = request.process.value();
  const std::string counter = op.counter;
  switch (op.type) {
    case OpType::kInc: {
      c.balance += a;
      c.pending[pid] += a;
      c.pending_total += a;
      *ret = a;
      if (undo != nullptr) {
        *undo = [this, counter, pid, a]() {
          Counter& cc = counters_[counter];
          cc.balance -= a;
          // The pending credit may have been (partly) released to stable
          // meanwhile (process resolved before the branch aborted): take
          // back only what is still pending.
          auto it = cc.pending.find(pid);
          int64_t take = 0;
          if (it != cc.pending.end()) {
            take = std::min(a, it->second);
            it->second -= take;
            if (it->second == 0) cc.pending.erase(it);
          }
          cc.pending_total -= take;
        };
      }
      return Status::OK();
    }
    case OpType::kDec: {
      auto it = c.pending.find(pid);
      if (it != c.pending.end() && it->second >= a) {
        // Def. 2 infallibility: the compensating dec consumes the
        // process's own unstable credit, which the escrow test never made
        // available to anyone else — stable is unchanged, so this path
        // cannot fail and commutes with concurrent withdraws.
        c.balance -= a;
        it->second -= a;
        if (it->second == 0) c.pending.erase(it);
        c.pending_total -= a;
        *ret = a;
        if (undo != nullptr) {
          *undo = [this, counter, pid, a]() {
            Counter& cc = counters_[counter];
            cc.balance += a;
            cc.pending[pid] += a;
            cc.pending_total += a;
          };
        }
        return Status::OK();
      }
      // No matching credit: a forward decrement, escrow-tested like a
      // withdraw.
      [[fallthrough]];
    }
    case OpType::kWithdraw: {
      if (c.stable() - a < c.low_bound) {
        ++exhaustion_aborts_;
        return Status::Aborted(
            StrCat("escrow exhausted on ", counter, ": stable ", c.stable(),
                   " - ", a, " < low bound ", c.low_bound));
      }
      c.balance -= a;
      *ret = a;
      if (undo != nullptr) {
        *undo = [this, counter, a]() { counters_[counter].balance += a; };
      }
      return Status::OK();
    }
    case OpType::kRead: {
      *ret = c.balance;
      if (undo != nullptr) *undo = []() {};
      return Status::OK();
    }
  }
  return Status::Internal("unreachable escrow op type");
}

bool EscrowSubsystem::OpsCommuteLocally(OpType a, OpType b) {
  if (a == OpType::kRead || b == OpType::kRead) return a == b;
  return !(a == OpType::kWithdraw && b == OpType::kWithdraw);
}

bool EscrowSubsystem::WouldBlock(ServiceId service) const {
  auto it = bindings_.find(service);
  if (it == bindings_.end()) return false;
  for (const auto& [tx, prep] : prepared_) {
    auto pit = bindings_.find(prep.service);
    if (pit == bindings_.end()) continue;
    if (pit->second.counter != it->second.counter) continue;
    if (!OpsCommuteLocally(it->second.type, pit->second.type)) return true;
  }
  return false;
}

Result<InvocationOutcome> EscrowSubsystem::Invoke(
    ServiceId service, const ServiceRequest& request) {
  ++invocations_;
  auto it = bindings_.find(service);
  if (it == bindings_.end()) {
    return Status::NotFound(StrCat("unknown escrow service ", service));
  }
  if (WouldBlock(service)) {
    return Status::Unavailable(
        StrCat("escrow service ", service, " blocked by a prepared op"));
  }
  int64_t ret = 0;
  TPM_RETURN_IF_ERROR(Apply(it->second, EnsureCounter(it->second.counter),
                            request, &ret, nullptr));
  return InvocationOutcome{ret};
}

Result<PreparedHandle> EscrowSubsystem::InvokePrepared(
    ServiceId service, const ServiceRequest& request) {
  ++invocations_;
  auto it = bindings_.find(service);
  if (it == bindings_.end()) {
    return Status::NotFound(StrCat("unknown escrow service ", service));
  }
  if (WouldBlock(service)) {
    return Status::Unavailable(
        StrCat("escrow service ", service, " blocked by a prepared op"));
  }
  int64_t ret = 0;
  std::function<void()> undo;
  TPM_RETURN_IF_ERROR(Apply(it->second, EnsureCounter(it->second.counter),
                            request, &ret, &undo));
  // The op executed against live state (commuting ops cannot observe the
  // difference; non-commuting ones are blocked above until resolution);
  // abort reverses it via the captured undo.
  TxId tx(next_tx_++);
  prepared_[tx] = PreparedOp{service, std::move(undo)};
  return PreparedHandle{tx, ret};
}

Status EscrowSubsystem::CommitPrepared(TxId tx) {
  auto it = prepared_.find(tx);
  if (it == prepared_.end()) {
    return Status::NotFound(StrCat("unknown prepared escrow tx ", tx));
  }
  prepared_.erase(it);
  return Status::OK();
}

Status EscrowSubsystem::AbortPrepared(TxId tx) {
  auto it = prepared_.find(tx);
  if (it == prepared_.end()) {
    return Status::NotFound(StrCat("unknown prepared escrow tx ", tx));
  }
  it->second.undo();
  prepared_.erase(it);
  return Status::OK();
}

Status EscrowSubsystem::AbortAllPrepared() {
  // Presumed abort on recovery: undo in reverse prepare order (LIFO), the
  // order a cascaded rollback would use.
  for (auto it = prepared_.rbegin(); it != prepared_.rend(); ++it) {
    it->second.undo();
  }
  prepared_.clear();
  return Status::OK();
}

void EscrowSubsystem::OnProcessResolved(ProcessId process, bool /*committed*/) {
  // Commit: the deposits are final, the credit becomes stable balance.
  // Abort: every compensated inc consumed its credit already; whatever is
  // left belongs to committed-but-uncompensated deposits (e.g. a pivot's),
  // which are equally final.
  const int64_t pid = process.value();
  for (auto& [name, c] : counters_) {
    auto it = c.pending.find(pid);
    if (it == c.pending.end()) continue;
    c.pending_total -= it->second;
    c.pending.erase(it);
  }
}

int64_t EscrowSubsystem::BalanceOf(const std::string& counter) const {
  auto it = counters_.find(counter);
  return it == counters_.end() ? 0 : it->second.balance;
}

int64_t EscrowSubsystem::AvailableOf(const std::string& counter) const {
  auto it = counters_.find(counter);
  if (it == counters_.end()) return 0;
  return it->second.stable() - it->second.low_bound;
}

std::map<std::string, int64_t> EscrowSubsystem::Snapshot() const {
  std::map<std::string, int64_t> snapshot;
  for (const auto& [name, c] : counters_) snapshot[name] = c.balance;
  return snapshot;
}

Status EscrowSubsystem::CheckInvariants() const {
  for (const auto& [name, c] : counters_) {
    if (c.balance < c.low_bound) {
      return Status::Internal(StrCat("escrow counter ", name, ": balance ",
                                     c.balance, " below low bound ",
                                     c.low_bound));
    }
    int64_t pending_sum = 0;
    for (const auto& [pid, credit] : c.pending) {
      if (credit < 0) {
        return Status::Internal(StrCat("escrow counter ", name,
                                       ": negative pending credit of P", pid));
      }
      pending_sum += credit;
    }
    if (pending_sum != c.pending_total) {
      return Status::Internal(
          StrCat("escrow counter ", name, ": pending total ", c.pending_total,
                 " != sum ", pending_sum));
    }
    if (c.stable() < c.low_bound) {
      return Status::Internal(
          StrCat("escrow counter ", name, ": stable ", c.stable(),
                 " below low bound ", c.low_bound,
                 " (the escrow test's envelope was violated)"));
    }
  }
  return Status::OK();
}

uint64_t EscrowSubsystem::StateFingerprint() const {
  uint64_t h = kFnv1aOffsetBasis;
  for (const auto& [name, c] : counters_) {
    h = Fnv1a(h, name);
    h = Fnv1aInt(h, static_cast<uint64_t>(c.balance));
    h = Fnv1aInt(h, static_cast<uint64_t>(c.low_bound));
    h = Fnv1aInt(h, static_cast<uint64_t>(c.pending_total));
    for (const auto& [pid, credit] : c.pending) {
      h = Fnv1aInt(h, static_cast<uint64_t>(pid));
      h = Fnv1aInt(h, static_cast<uint64_t>(credit));
    }
  }
  h = Fnv1aInt(h, static_cast<uint64_t>(next_tx_));
  h = Fnv1aInt(h, static_cast<uint64_t>(invocations_));
  h = Fnv1aInt(h, static_cast<uint64_t>(exhaustion_aborts_));
  return h;
}

}  // namespace tpm
