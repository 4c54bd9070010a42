#include "core/conflict.h"

#include <algorithm>

#include "common/str_util.h"

namespace tpm {

namespace {
const std::vector<ServiceId> kNoPartners;
}  // namespace

int ConflictSpec::RegisterService(ServiceId service) {
  auto it = index_of_.find(service);
  if (it != index_of_.end()) return it->second;
  int index = static_cast<int>(services_.size());
  index_of_.emplace(service, index);
  services_.push_back(service);
  rows_.emplace_back();
  partners_.emplace_back();
  effect_free_.push_back(false);
  op_of_.push_back(-1);
  effective_dirty_ = true;
  return index;
}

bool ConflictSpec::TestBit(int a, int b) const {
  const std::vector<uint64_t>& row = rows_[a];
  size_t word = static_cast<size_t>(b) / 64;
  if (word >= row.size()) return false;
  return (row[word] >> (b % 64)) & 1;
}

void ConflictSpec::SetBit(int a, int b) {
  std::vector<uint64_t>& row = rows_[a];
  size_t word = static_cast<size_t>(b) / 64;
  if (word >= row.size()) row.resize(word + 1, 0);
  row[word] |= uint64_t{1} << (b % 64);
}

void ConflictSpec::AddConflict(ServiceId a, ServiceId b) {
  int ia = RegisterService(a);
  int ib = RegisterService(b);
  if (TestBit(ia, ib)) return;
  SetBit(ia, ib);
  SetBit(ib, ia);
  partners_[ia].push_back(b);
  if (ia != ib) partners_[ib].push_back(a);
  ++num_pairs_;
  effective_dirty_ = true;
}

void ConflictSpec::MarkEffectFree(ServiceId service) {
  effect_free_[RegisterService(service)] = true;
}

bool ConflictSpec::EffectiveConflict(int ia, int ib) const {
  if (!TestBit(ia, ib)) return false;
  if (op_enabled_) {
    const int oa = op_of_[ia];
    const int ob = op_of_[ib];
    if (oa >= 0 && ob >= 0 && TestOpBit(oa, ob)) return false;
  }
  return true;
}

bool ConflictSpec::ServicesConflict(ServiceId a, ServiceId b) const {
  int ia = IndexOf(a);
  if (ia < 0) return false;
  int ib = IndexOf(b);
  if (ib < 0) return false;
  return EffectiveConflict(ia, ib);
}

bool ConflictSpec::IsEffectFreeService(ServiceId service) const {
  int index = IndexOf(service);
  return index >= 0 && effect_free_[index];
}

void ConflictSpec::RebuildEffectivePartners() const {
  effective_partners_.resize(services_.size());
  for (size_t i = 0; i < services_.size(); ++i) {
    effective_partners_[i].clear();
    ForEachPartner(services_[i], [&](ServiceId partner) {
      effective_partners_[i].push_back(partner);
    });
  }
  effective_dirty_ = false;
}

const std::vector<ServiceId>& ConflictSpec::PartnersOf(
    ServiceId service) const {
  int index = IndexOf(service);
  if (index < 0) return kNoPartners;
  if (effective_dirty_ || effective_partners_.size() != services_.size()) {
    RebuildEffectivePartners();
  }
  return effective_partners_[index];
}

std::vector<std::pair<ServiceId, ServiceId>> ConflictSpec::ConflictPairs()
    const {
  std::vector<std::pair<ServiceId, ServiceId>> pairs;
  pairs.reserve(num_pairs_);
  for (size_t i = 0; i < services_.size(); ++i) {
    for (ServiceId partner : partners_[i]) {
      // Each unordered pair once, normalized a <= b.
      if (services_[i] <= partner) pairs.emplace_back(services_[i], partner);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// ---------------------------------------------------------------------------
// Operation-level commutativity.

int ConflictSpec::RegisterOpKind(const std::string& name) {
  auto it = op_index_of_.find(name);
  if (it != op_index_of_.end()) return it->second;
  int index = static_cast<int>(op_names_.size());
  op_index_of_.emplace(name, index);
  op_names_.push_back(name);
  op_rows_.emplace_back();
  op_inverse_.push_back(-1);
  return index;
}

int ConflictSpec::OpKindIndexOf(const std::string& name) const {
  auto it = op_index_of_.find(name);
  return it == op_index_of_.end() ? -1 : it->second;
}

void ConflictSpec::BindOp(ServiceId service, int op) {
  int index = RegisterService(service);
  op_of_[index] = op;
  effective_dirty_ = true;
}

int ConflictSpec::OpOf(ServiceId service) const {
  int index = IndexOf(service);
  return index < 0 ? -1 : op_of_[index];
}

bool ConflictSpec::TestOpBit(int a, int b) const {
  if (a < 0 || b < 0 || static_cast<size_t>(a) >= op_rows_.size() ||
      static_cast<size_t>(b) >= op_rows_.size()) {
    return false;
  }
  const std::vector<uint64_t>& row = op_rows_[a];
  size_t word = static_cast<size_t>(b) / 64;
  if (word >= row.size()) return false;
  return (row[word] >> (b % 64)) & 1;
}

bool ConflictSpec::SetOpPair(int a, int b) {
  if (TestOpBit(a, b)) return false;
  for (auto [x, y] : {std::pair<int, int>{a, b}, std::pair<int, int>{b, a}}) {
    std::vector<uint64_t>& row = op_rows_[x];
    size_t word = static_cast<size_t>(y) / 64;
    if (word >= row.size()) row.resize(word + 1, 0);
    row[word] |= uint64_t{1} << (y % 64);
  }
  return true;
}

void ConflictSpec::CloseUnderInverses() {
  // Fixpoint: commuting (a, b) implies commuting pairs over {a, a^-1} x
  // {b, b^-1}. Tables are tiny (a handful of op kinds), so the quadratic
  // sweep is immaterial.
  bool changed = true;
  while (changed) {
    changed = false;
    const int n = static_cast<int>(op_names_.size());
    for (int a = 0; a < n; ++a) {
      for (int b = a; b < n; ++b) {
        if (!TestOpBit(a, b)) continue;
        const int ia = op_inverse_[a];
        const int ib = op_inverse_[b];
        if (ia >= 0 && SetOpPair(ia, b)) changed = true;
        if (ib >= 0 && SetOpPair(a, ib)) changed = true;
        if (ia >= 0 && ib >= 0 && SetOpPair(ia, ib)) changed = true;
      }
    }
  }
  effective_dirty_ = true;
}

void ConflictSpec::AddCommutingOps(int a, int b) {
  if (a < 0 || b < 0 || static_cast<size_t>(a) >= op_names_.size() ||
      static_cast<size_t>(b) >= op_names_.size()) {
    return;
  }
  SetOpPair(a, b);
  CloseUnderInverses();
}

void ConflictSpec::SetInverseOp(int op, int inverse) {
  if (op < 0 || inverse < 0 || static_cast<size_t>(op) >= op_names_.size() ||
      static_cast<size_t>(inverse) >= op_names_.size()) {
    return;
  }
  op_inverse_[op] = inverse;
  op_inverse_[inverse] = op;
  CloseUnderInverses();
}

int ConflictSpec::InverseOf(int op) const {
  if (op < 0 || static_cast<size_t>(op) >= op_inverse_.size()) return -1;
  return op_inverse_[op];
}

bool ConflictSpec::OpsCommute(int a, int b) const { return TestOpBit(a, b); }

std::vector<std::pair<int, int>> ConflictSpec::CommutingOpPairs() const {
  std::vector<std::pair<int, int>> pairs;
  const int n = static_cast<int>(op_names_.size());
  for (int a = 0; a < n; ++a) {
    for (int b = a; b < n; ++b) {
      if (TestOpBit(a, b)) pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

Status ConflictSpec::VerifyOpTableClosure() const {
  const int n = static_cast<int>(op_names_.size());
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (TestOpBit(a, b) != TestOpBit(b, a)) {
        return Status::Internal(StrCat("op table asymmetric at (",
                                       op_names_[a], ", ", op_names_[b], ")"));
      }
      if (!TestOpBit(a, b)) continue;
      const int ia = op_inverse_[a];
      if (ia >= 0 && !TestOpBit(ia, b)) {
        return Status::Internal(
            StrCat("op table not closed under compensation pairing: (",
                   op_names_[a], ", ", op_names_[b], ") commute but (",
                   op_names_[ia], ", ", op_names_[b], ") do not"));
      }
    }
  }
  return Status::OK();
}

void ConflictSpec::set_op_commutativity_enabled(bool enabled) {
  if (op_enabled_ == enabled) return;
  op_enabled_ = enabled;
  effective_dirty_ = true;
}

}  // namespace tpm
