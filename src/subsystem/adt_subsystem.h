#ifndef TPM_SUBSYSTEM_ADT_SUBSYSTEM_H_
#define TPM_SUBSYSTEM_ADT_SUBSYSTEM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/ids.h"
#include "common/status.h"
#include "subsystem/kv_subsystem.h"
#include "subsystem/service.h"

namespace tpm {

/// The prepared-op core shared by the semantic ADT subsystems
/// (EscrowSubsystem, QueueSubsystem): services bound to an ADT operation on
/// one named object, atomic invocation, and the prepared state Lemma 1's
/// deferred commit runs on.
///
/// A prepared op executes against live state at once and records an undo
/// closure: commit drops the closure, abort runs it. Commuting ops cannot
/// observe the difference; an invocation whose op does not commute (under
/// the ADT's local table) with a prepared op on the same object is blocked
/// with kUnavailable until that op resolves. Committing or aborting a tx
/// that was never issued or is already resolved returns NotFound and leaves
/// the state untouched — recovery's force-commit and the cross-shard
/// resolve step rely on that.
///
/// Each ADT supplies its own state, its Apply and its commutativity table.
class AdtSubsystem : public Subsystem {
 public:
  AdtSubsystem(const AdtSubsystem&) = delete;
  AdtSubsystem& operator=(const AdtSubsystem&) = delete;

  SubsystemId id() const override { return id_; }
  const std::string& name() const override { return name_; }
  const ServiceRegistry& services() const override { return registry_; }

  Result<InvocationOutcome> Invoke(ServiceId service,
                                   const ServiceRequest& request) override;
  Result<PreparedHandle> InvokePrepared(ServiceId service,
                                        const ServiceRequest& request) override;
  Status CommitPrepared(TxId tx) override;
  Status AbortPrepared(TxId tx) override;
  bool WouldBlock(ServiceId service) const override;
  Status AbortAllPrepared() override;
  /// Folds the tx counter and the invocation count, then the ADT's state.
  uint64_t StateFingerprint() const final;

  int64_t invocations() const { return invocations_; }

 protected:
  /// A registered service: the ADT's op code, the object (counter, queue)
  /// it acts on and its default amount.
  struct OpBinding {
    int op;
    std::string object;
    int64_t amount;
  };

  /// `kind` names the ADT in error messages ("escrow", "queue").
  AdtSubsystem(SubsystemId id, std::string name, std::string kind);

  /// Registers `def` bound to `op` on `object`: read set {object}, write
  /// set {object} unless the service is effect-free, and the stub body the
  /// registry requires (the core dispatches on the binding instead). The
  /// object is created on success.
  Status RegisterOp(ServiceDef def, int op, const std::string& object,
                    int64_t amount = 1);

  /// Creates `object` empty unless it exists.
  virtual void AddObject(const std::string& object) = 0;
  /// Executes the op; fills `ret` and, when `undo` is non-null, a closure
  /// restoring the prior state (prepared invocations).
  virtual Status Apply(const OpBinding& op, const ServiceRequest& request,
                       int64_t* ret, std::function<void()>* undo) = 0;
  /// The ADT's commutativity table at subsystem level, mirroring the op
  /// metadata its services declare to the scheduler.
  virtual bool OpsCommuteLocally(int a, int b) const = 0;
  /// Folds the ADT's own state into `h`.
  virtual uint64_t FoldState(uint64_t h) const = 0;

 private:
  struct PreparedOp {
    ServiceId service;
    std::function<void()> undo;
  };

  Status Execute(ServiceId service, const ServiceRequest& request,
                 int64_t* ret, std::function<void()>* undo);

  SubsystemId id_;
  std::string name_;
  std::string kind_;
  ServiceRegistry registry_;
  std::map<ServiceId, OpBinding> bindings_;
  std::map<TxId, PreparedOp> prepared_;
  int64_t next_tx_ = 1;
  int64_t invocations_ = 0;
};

}  // namespace tpm

#endif  // TPM_SUBSYSTEM_ADT_SUBSYSTEM_H_
