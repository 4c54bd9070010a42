#ifndef TPM_CORE_CONFLICT_H_
#define TPM_CORE_CONFLICT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "core/activity.h"

namespace tpm {

/// Commutativity / conflict specification (Def. 6).
///
/// Def. 6 defines commutativity semantically via return values over all
/// contexts, which is not decidable from syntax. As in practical schedulers
/// built on the unified theory, conflicts are *declared* at service
/// granularity: every activity is bound to a ServiceId, and two activity
/// instances conflict iff their services are related in the conflict
/// relation (and they belong to different processes — intra-process order is
/// fixed by the precedence order anyway).
///
/// Layered under the service-level relation is an optional *operation-level
/// commutativity table* (ADT semantics, §3.2's semantic conflicts): each
/// service may be bound to an interned operation kind (e.g. "escrow.inc",
/// "queue.enq"), and declared commuting op pairs *downgrade* a service-level
/// conflict to a non-conflict. The op layer only ever removes conflicts —
/// with no ops bound (or the layer disabled) the relation is exactly the
/// service-level one, so read/write-derived conflicts remain the
/// conservative upper bound.
///
/// Perfect commutativity (§3.2) is built in twice over: the inverse flag of
/// an ActivityInstance is ignored when testing conflicts, so a^-1 conflicts
/// with exactly the activities a conflicts with; and the op table is closed
/// under compensation pairing by construction — declaring that ops a and b
/// commute also declares a^-1/b, a/b^-1 and a^-1/b^-1 commuting for any
/// inverses registered via SetInverseOp (Def. 2 requires the compensation
/// to be at least as commutative as its original, else compensating could
/// introduce conflicts the forward execution never had).
///
/// A service may additionally be declared *effect-free* (Def. 1): its
/// executions never change the return values of surrounding activities
/// (e.g., a pure query). Effect-free activities of non-committed processes
/// may be removed by reduction rule 3 (Def. 9).
///
/// Services are interned into a dense index (RegisterService / IndexOf) and
/// the relation is stored as bitset adjacency rows plus per-service partner
/// lists, so `ServicesConflict` is O(1) and schedulers can keep their own
/// per-service side tables as flat vectors over the dense index.
class ConflictSpec {
 public:
  ConflictSpec() = default;

  /// Interns `service` into the dense index without declaring any conflict.
  /// Idempotent; returns the service's dense index.
  int RegisterService(ServiceId service);

  /// Declares that `a` and `b` do not commute. Symmetric; self-conflict
  /// (a == b) is allowed and common (a service conflicts with itself).
  void AddConflict(ServiceId a, ServiceId b);

  /// Declares that every execution of `service` is effect-free.
  void MarkEffectFree(ServiceId service);

  /// Effective conflict test: the service-level relation, minus pairs whose
  /// bound operation kinds are declared commuting (while the op layer is
  /// enabled).
  bool ServicesConflict(ServiceId a, ServiceId b) const;
  bool IsEffectFreeService(ServiceId service) const;

  /// Number of interned services (dense indices are [0, NumServices())).
  size_t NumServices() const { return services_.size(); }

  /// Dense index of `service`, or -1 if never interned.
  int IndexOf(ServiceId service) const {
    auto it = index_of_.find(service);
    return it == index_of_.end() ? -1 : it->second;
  }

  ServiceId ServiceAt(size_t index) const { return services_[index]; }

  /// Services *effectively* conflicting with `service` — consistent with
  /// ServicesConflict, i.e. op-commuting pairs are filtered out (including
  /// `service` itself when self-conflicting); empty for services with no
  /// declared conflicts.
  const std::vector<ServiceId>& PartnersOf(ServiceId service) const;

  /// Calls `fn(partner)` for every service effectively conflicting with
  /// `service`, as PartnersOf lists them. Reads only the declared partner
  /// list and touches no cache, so concurrent readers need no lock.
  template <typename Fn>
  void ForEachPartner(ServiceId service, Fn&& fn) const {
    const int index = IndexOf(service);
    if (index < 0) return;
    for (ServiceId partner : partners_[index]) {
      if (EffectiveConflict(index, IndexOf(partner))) fn(partner);
    }
  }

  /// Number of declared service-level conflicting (unordered) pairs —
  /// before op-table downgrades.
  size_t num_conflict_pairs() const { return num_pairs_; }

  /// All declared service-level conflicting pairs (a <= b normalized,
  /// sorted) — the raw relation, used to transfer a spec; replaying these
  /// pairs plus the op bindings reproduces the effective relation.
  std::vector<std::pair<ServiceId, ServiceId>> ConflictPairs() const;

  // --- Operation-level commutativity (ADT conflict tables). ---

  /// Interns an operation kind by name (e.g. "escrow.inc"); idempotent.
  /// Returns the dense op index.
  int RegisterOpKind(const std::string& name);

  /// Dense index of the op kind, or -1 if never registered.
  int OpKindIndexOf(const std::string& name) const;

  size_t NumOpKinds() const { return op_names_.size(); }
  const std::string& OpKindName(int op) const { return op_names_[op]; }

  /// Binds `service` to operation kind `op` (a dense op index from
  /// RegisterOpKind). A service has at most one op kind; rebinding
  /// overwrites.
  void BindOp(ServiceId service, int op);

  /// Op kind bound to `service`, or -1 if unbound.
  int OpOf(ServiceId service) const;

  /// Declares that op kinds `a` and `b` commute (symmetric; a == b means
  /// instances of the op commute with each other). Automatically closed
  /// under registered inverses: a^-1/b, a/b^-1, a^-1/b^-1 become commuting
  /// too (perfect-closure, Def. 2).
  void AddCommutingOps(int a, int b);

  /// Registers `inverse` as the compensating op kind of `op` (mutual:
  /// `op` is recorded as the inverse of `inverse` as well). Re-closes the
  /// commuting table over the new pairing.
  void SetInverseOp(int op, int inverse);

  /// Inverse op kind of `op`, or -1 if none registered.
  int InverseOf(int op) const;

  bool OpsCommute(int a, int b) const;

  /// All commuting (unordered) op-kind pairs, a <= b normalized, sorted.
  std::vector<std::pair<int, int>> CommutingOpPairs() const;

  /// Verifies the op table is symmetric and closed under compensation
  /// pairing: for every commuting (a, b) and every registered inverse a^-1,
  /// (a^-1, b) commutes too. Construction enforces this; the check exists
  /// for property tests and for tables deserialized from elsewhere.
  Status VerifyOpTableClosure() const;

  /// Toggles the op layer. Disabled, the effective relation degrades to the
  /// pure service-level (read/write-style) relation — the ablation knob the
  /// semantic-vs-read/write experiments flip on an otherwise identical
  /// workload.
  void set_op_commutativity_enabled(bool enabled);
  bool op_commutativity_enabled() const { return op_enabled_; }

 private:
  bool TestBit(int a, int b) const;
  void SetBit(int a, int b);
  bool TestOpBit(int a, int b) const;
  /// Sets the commuting bit for (a, b) both ways; returns true if new.
  bool SetOpPair(int a, int b);
  /// Re-closes the commuting relation under the inverse pairing (fixpoint).
  void CloseUnderInverses();
  /// True iff the *effective* relation relates the dense indices.
  bool EffectiveConflict(int ia, int ib) const;
  void RebuildEffectivePartners() const;

  std::unordered_map<ServiceId, int> index_of_;
  std::vector<ServiceId> services_;
  /// Bitset adjacency: rows_[i] holds a bit per dense service index. Rows
  /// grow lazily to the highest partner index set.
  std::vector<std::vector<uint64_t>> rows_;
  /// Raw service-level partner lists (pre-downgrade).
  std::vector<std::vector<ServiceId>> partners_;
  std::vector<bool> effect_free_;
  size_t num_pairs_ = 0;

  // Op layer. op_of_ is aligned with services_.
  std::unordered_map<std::string, int> op_index_of_;
  std::vector<std::string> op_names_;
  std::vector<std::vector<uint64_t>> op_rows_;
  std::vector<int> op_inverse_;
  std::vector<int> op_of_;
  bool op_enabled_ = true;

  /// PartnersOf cache of effective (downgraded) partner lists, rebuilt
  /// lazily after any mutation that can change the effective relation.
  mutable std::vector<std::vector<ServiceId>> effective_partners_;
  mutable bool effective_dirty_ = false;
};

}  // namespace tpm

#endif  // TPM_CORE_CONFLICT_H_
