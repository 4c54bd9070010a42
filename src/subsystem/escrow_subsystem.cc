#include "subsystem/escrow_subsystem.h"

#include <algorithm>
#include <utility>

#include "common/fingerprint.h"
#include "common/str_util.h"

namespace tpm {

EscrowSubsystem::EscrowSubsystem(SubsystemId id, std::string name)
    : AdtSubsystem(id, std::move(name), "escrow") {}

Status EscrowSubsystem::CreateCounter(const std::string& counter,
                                      int64_t initial, int64_t low_bound) {
  if (initial < low_bound) {
    return Status::InvalidArgument(
        StrCat("counter ", counter, " initial balance ", initial,
               " below low bound ", low_bound));
  }
  Counter& c = counters_[counter];
  c.balance = initial;
  c.low_bound = low_bound;
  return Status::OK();
}

void EscrowSubsystem::AddObject(const std::string& counter) {
  counters_.try_emplace(counter);
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
  return RegisterOp(std::move(def), kInc, counter, amount);
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
  return RegisterOp(std::move(def), kDec, counter, amount);
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
  return RegisterOp(std::move(def), kWithdraw, counter, amount);
}

Status EscrowSubsystem::RegisterReadService(ServiceId id,
                                            const std::string& counter) {
  ServiceDef def;
  def.id = id;
  def.name = StrCat("escrow.read/", counter);
  def.effect_free = true;
  return RegisterOp(std::move(def), kRead, counter);
}

Status EscrowSubsystem::Apply(const OpBinding& op,
                              const ServiceRequest& request, int64_t* ret,
                              std::function<void()>* undo) {
  const int64_t a = request.param == 0 ? op.amount : request.param;
  if (a <= 0) {
    return Status::InvalidArgument(StrCat("non-positive amount ", a));
  }
  const int64_t pid = request.process.value();
  const std::string counter = op.object;
  Counter& c = counters_[counter];
  switch (op.op) {
    case kInc: {
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
    case kDec: {
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
    case kWithdraw: {
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
    case kRead: {
      *ret = c.balance;
      if (undo != nullptr) *undo = []() {};
      return Status::OK();
    }
  }
  return Status::Internal("unreachable escrow op type");
}

bool EscrowSubsystem::OpsCommuteLocally(int a, int b) const {
  if (a == kRead || b == kRead) return a == b;
  return !(a == kWithdraw && b == kWithdraw);
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

uint64_t EscrowSubsystem::FoldState(uint64_t h) const {
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
  h = Fnv1aInt(h, static_cast<uint64_t>(exhaustion_aborts_));
  return h;
}

}  // namespace tpm
