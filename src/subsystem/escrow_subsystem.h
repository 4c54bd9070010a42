#ifndef TPM_SUBSYSTEM_ESCROW_SUBSYSTEM_H_
#define TPM_SUBSYSTEM_ESCROW_SUBSYSTEM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/ids.h"
#include "common/status.h"
#include "subsystem/adt_subsystem.h"

namespace tpm {

/// Escrow-counter subsystem (the classical escrow method of O'Neil, as a
/// transactional subsystem in the paper's §2.3 sense): named counters
/// supporting increment, decrement and bounded withdraw, with ADT-level
/// commutativity declared through the ServiceDef op metadata so the
/// scheduler's conflict relation (Def. 6) admits concurrent updates that
/// read/write analysis would serialize.
///
/// Operation kinds and their commutativity table:
///
///   escrow.inc      — deposit; commutes with inc, dec and withdraw.
///   escrow.dec      — the compensating decrement of an inc (Def. 2:
///                     <inc dec> is effect-free); by perfect-closure it
///                     commutes exactly where inc does.
///   escrow.withdraw — forward bounded withdraw under the escrow test;
///                     conflicts only with other withdraws (the one pair
///                     whose outcome can depend on order, near exhaustion).
///
/// Soundness of inc/withdraw commutativity rests on the *reservation
/// discipline*: a deposit is tracked as unstable per-process credit until
/// its process resolves, and the escrow test charges withdrawals against
/// the stable part only,
///
///   stable = balance - pending_deposits,
///
/// so a withdraw's outcome never depends on concurrently executing
/// (still-abortable) increments — both orders return the same values. The
/// same discipline makes the compensating dec infallible (Def. 2 demands a
/// compensation that cannot fail): it consumes the process's own pending
/// credit, which the escrow test never handed out to anyone else.
///
/// Invocation and the prepared state come from the AdtSubsystem core.
/// Counter state survives a scheduler crash (subsystems are the durable
/// periphery, as with KvSubsystem); prepared transactions are rolled back
/// by AbortAllPrepared during recovery (presumed abort), and per-process
/// pending credit is released when the scheduler reports the process
/// resolved (OnProcessResolved). Credit orphaned by a crash is folded into
/// the stable balance on recovery — a conservative availability release,
/// never a safety loss.
class EscrowSubsystem : public AdtSubsystem {
 public:
  EscrowSubsystem(SubsystemId id, std::string name);

  /// Creates a counter with the given initial balance and lower bound
  /// (the escrow test keeps balance >= low_bound at all times).
  Status CreateCounter(const std::string& counter, int64_t initial,
                       int64_t low_bound = 0);

  /// Registers an increment / compensating-decrement / bounded-withdraw
  /// service on `counter` (created on demand with balance 0). `amount` is
  /// the default delta when the invocation's param is 0.
  Status RegisterIncService(ServiceId id, const std::string& counter,
                            int64_t amount = 1);
  Status RegisterDecService(ServiceId id, const std::string& counter,
                            int64_t amount = 1);
  Status RegisterWithdrawService(ServiceId id, const std::string& counter,
                                 int64_t amount = 1);
  /// Effect-free balance query (no op binding: reads keep their
  /// conservative read/write conflicts).
  Status RegisterReadService(ServiceId id, const std::string& counter);

  void OnProcessResolved(ProcessId process, bool committed) override;

  int64_t BalanceOf(const std::string& counter) const;
  /// Stable headroom above the lower bound: what the escrow test would let
  /// one withdraw right now.
  int64_t AvailableOf(const std::string& counter) const;

  /// Balances by counter name (state fingerprinting in crash tests).
  std::map<std::string, int64_t> Snapshot() const;

  /// The ADT invariants checked after every chaos/crash recovery:
  /// balance >= low_bound, non-negative pending credit, and
  /// balance - pending >= low_bound (the escrow test's safety envelope).
  Status CheckInvariants() const;

  int64_t exhaustion_aborts() const { return exhaustion_aborts_; }

 private:
  enum OpType { kInc, kDec, kWithdraw, kRead };

  struct Counter {
    int64_t balance = 0;
    int64_t low_bound = 0;
    /// Unstable deposit credit per still-unresolved process. Prepared
    /// (in-doubt) withdraws need no separate reservation: they debit the
    /// balance immediately and are credited back on abort, so the debit IS
    /// the reservation.
    std::map<int64_t, int64_t> pending;
    int64_t pending_total = 0;

    int64_t stable() const { return balance - pending_total; }
  };

  void AddObject(const std::string& counter) override;
  Status Apply(const OpBinding& op, const ServiceRequest& request,
               int64_t* ret, std::function<void()>* undo) override;
  /// Everything commutes except withdraw/withdraw, and reads
  /// conservatively conflict with every update.
  bool OpsCommuteLocally(int a, int b) const override;
  uint64_t FoldState(uint64_t h) const override;

  std::map<std::string, Counter> counters_;
  int64_t exhaustion_aborts_ = 0;
};

}  // namespace tpm

#endif  // TPM_SUBSYSTEM_ESCROW_SUBSYSTEM_H_
