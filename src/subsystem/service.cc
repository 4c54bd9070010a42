#include "subsystem/service.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <unordered_map>

#include "common/rng.h"
#include "common/str_util.h"

namespace tpm {

int64_t RetryPolicy::BackoffTicks(int attempt, Rng* rng) const {
  if (backoff_base_ticks <= 0 || attempt <= 0) return 0;
  int64_t ticks;
  if (exponential) {
    ticks = backoff_base_ticks;
    for (int i = 1; i < attempt; ++i) {
      if (ticks > std::numeric_limits<int64_t>::max() / 2) break;
      ticks *= 2;
    }
  } else {
    ticks = backoff_base_ticks * attempt;
  }
  if (max_backoff_ticks > 0 && ticks > max_backoff_ticks) {
    ticks = max_backoff_ticks;
  }
  if (full_jitter && rng != nullptr) {
    ticks = rng->NextInRange(0, ticks);
  }
  return ticks;
}

Status ServiceRegistry::Register(ServiceDef def) {
  if (!def.id.valid()) {
    return Status::InvalidArgument("service id invalid");
  }
  if (def.body == nullptr) {
    return Status::InvalidArgument(StrCat("service ", def.name, " lacks a body"));
  }
  if (services_.count(def.id) > 0) {
    return Status::AlreadyExists(StrCat("service ", def.id, " already registered"));
  }
  services_.emplace(def.id, std::move(def));
  return Status::OK();
}

Result<const ServiceDef*> ServiceRegistry::Lookup(ServiceId id) const {
  auto it = services_.find(id);
  if (it == services_.end()) {
    return Status::NotFound(StrCat("unknown service ", id));
  }
  return &it->second;
}

std::vector<ServiceId> ServiceRegistry::AllIds() const {
  std::vector<ServiceId> ids;
  ids.reserve(services_.size());
  for (const auto& [id, def] : services_) ids.push_back(id);
  return ids;
}

void ServiceRegistry::DeriveConflicts(ConflictSpec* spec) const {
  // Two services conflict iff one's writes intersect the other's reads or
  // writes. Index every key by its readers and writers; services_ iterates
  // in ascending id order, so each list comes out sorted (a key listed
  // twice in one set lists its service twice).
  struct KeyUsers {
    std::vector<ServiceId> readers;
    std::vector<ServiceId> writers;
  };
  std::unordered_map<std::string_view, KeyUsers> users;
  for (const auto& [id, def] : services_) {
    for (const std::string& key : def.read_set) {
      users[key].readers.push_back(id);
    }
    for (const std::string& key : def.write_set) {
      users[key].writers.push_back(id);
    }
  }
  // Services a in ascending id order, each with its partners b >= a in
  // ascending order: the same sequence of spec mutations as the pairwise
  // definition issues, so the spec's dense interning order, partner lists
  // and bitsets are those of a pairwise scan. Cost: O(sum of key-set sizes
  // + conflicting pairs) instead of O(services^2).
  std::vector<ServiceId> partners;
  const auto gather = [&partners](const std::vector<ServiceId>& ids,
                                  ServiceId from) {
    partners.insert(partners.end(),
                    std::lower_bound(ids.begin(), ids.end(), from), ids.end());
  };
  for (const auto& [id, def] : services_) {
    if (def.effect_free) spec->MarkEffectFree(id);
    partners.clear();
    for (const std::string& key : def.write_set) {
      const KeyUsers& key_users = users.find(key)->second;
      gather(key_users.readers, id);
      gather(key_users.writers, id);
    }
    for (const std::string& key : def.read_set) {
      gather(users.find(key)->second.writers, id);
    }
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()),
                   partners.end());
    for (ServiceId partner : partners) spec->AddConflict(id, partner);
  }
  // Op-kind metadata: bind services to interned op kinds and declare the
  // commuting pairs / inverse pairings, downgrading the conservative
  // read/write conflicts where the ADT semantics admit more concurrency.
  for (const auto& [id, def] : services_) {
    if (def.op_kind.empty()) continue;
    const int op = spec->RegisterOpKind(def.op_kind);
    spec->BindOp(id, op);
    if (!def.inverse_op_kind.empty()) {
      spec->SetInverseOp(op, spec->RegisterOpKind(def.inverse_op_kind));
    }
    for (const std::string& other : def.commutes_with) {
      spec->AddCommutingOps(op, spec->RegisterOpKind(other));
    }
  }
}

ServiceDef MakePutService(ServiceId id, std::string name, std::string key) {
  ServiceDef def;
  def.id = id;
  def.name = std::move(name);
  def.read_set = {key};
  def.write_set = {key};
  def.body = [key](KvStore* store, const ServiceRequest& request,
                   int64_t* ret) {
    *ret = store->Get(key);
    store->Put(key, request.param);
    return Status::OK();
  };
  return def;
}

namespace {

ServiceDef MakeDeltaService(ServiceId id, std::string name, std::string key,
                            int64_t sign) {
  ServiceDef def;
  def.id = id;
  def.name = std::move(name);
  def.read_set = {key};
  def.write_set = {key};
  def.body = [key, sign](KvStore* store, const ServiceRequest& request,
                         int64_t* ret) {
    const int64_t amount = request.param == 0 ? 1 : request.param;
    store->Add(key, sign * amount);
    *ret = store->Get(key);
    return Status::OK();
  };
  return def;
}

}  // namespace

ServiceDef MakeAddService(ServiceId id, std::string name, std::string key) {
  return MakeDeltaService(id, std::move(name), std::move(key), +1);
}

ServiceDef MakeSubService(ServiceId id, std::string name, std::string key) {
  return MakeDeltaService(id, std::move(name), std::move(key), -1);
}

ServiceDef MakeReadService(ServiceId id, std::string name, std::string key) {
  ServiceDef def;
  def.id = id;
  def.name = std::move(name);
  def.read_set = {key};
  def.effect_free = true;
  def.body = [key](KvStore* store, const ServiceRequest& request,
                   int64_t* ret) {
    (void)request;
    *ret = store->Get(key);
    return Status::OK();
  };
  return def;
}

ServiceDef MakeEraseService(ServiceId id, std::string name, std::string key) {
  ServiceDef def;
  def.id = id;
  def.name = std::move(name);
  def.read_set = {key};
  def.write_set = {key};
  def.body = [key](KvStore* store, const ServiceRequest& request,
                   int64_t* ret) {
    (void)request;
    *ret = store->Get(key);
    store->Erase(key);
    return Status::OK();
  };
  return def;
}

}  // namespace tpm
