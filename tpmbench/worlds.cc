#include "worlds.h"

#include <unistd.h>

#include <filesystem>

#include "common/str_util.h"
#include "core/conflict.h"
#include "runtime/conflict_partition.h"

namespace tpmbench {

PayWorld::PayWorld(int tenants, double span_share) : span_share_(span_share) {
  for (int t = 0; t < tenants; ++t) {
    auto escrow = std::make_unique<tpm::EscrowSubsystem>(
        tpm::SubsystemId(100 + t), tpm::StrCat("pay", t));
    const Services s{tpm::ServiceId(1000 * (t + 1) + 1),
                     tpm::ServiceId(1000 * (t + 1) + 2),
                     tpm::ServiceId(1000 * (t + 1) + 3)};
    tpm::Status status = escrow->CreateCounter("res", 0);
    if (status.ok()) status = escrow->CreateCounter("set", 0);
    if (status.ok()) status = escrow->RegisterIncService(s.inc_res, "res");
    if (status.ok()) status = escrow->RegisterDecService(s.dec_res, "res");
    if (status.ok()) status = escrow->RegisterIncService(s.inc_set, "set");
    if (!status.ok()) return;
    escrow_.push_back(std::move(escrow));
    services_.push_back(s);
  }
  defs_.resize(escrow_.size());
  for (size_t a = 0; a < escrow_.size(); ++a) {
    for (size_t b = 0; b < escrow_.size(); ++b) {
      auto def =
          std::make_unique<tpm::ProcessDef>(tpm::StrCat("pay_", a, "_", b));
      const tpm::ActivityId reserve = def->AddActivity(
          "reserve", tpm::ActivityKind::kCompensatable, services_[a].inc_res,
          services_[a].dec_res);
      const tpm::ActivityId settle = def->AddActivity(
          "settle", tpm::ActivityKind::kPivot, services_[b].inc_set);
      if (!def->AddEdge(reserve, settle).ok() || !def->Validate().ok()) {
        def.reset();
      }
      defs_[a].push_back(std::move(def));
    }
  }
}

bool PayWorld::ok() const {
  if (escrow_.empty()) return false;
  for (const auto& row : defs_) {
    for (const auto& def : row) {
      if (def == nullptr) return false;
    }
  }
  return true;
}

tpm::Status PayWorld::Register(tpm::ShardedRuntime* runtime) {
  for (const auto& escrow : escrow_) {
    TPM_RETURN_IF_ERROR(runtime->AddSubsystem(escrow.get()));
  }
  return tpm::Status::OK();
}

std::map<std::string, const tpm::ProcessDef*> PayWorld::DefsByName() const {
  std::map<std::string, const tpm::ProcessDef*> out;
  for (const auto& row : defs_) {
    for (const auto& def : row) out[def->name()] = def.get();
  }
  return out;
}

Work PayWorld::Next(tpm::Rng* rng) const {
  const int n = tenants();
  const bool spanning = n > 1 && rng->NextBool(span_share_);
  const int a = static_cast<int>(rng->NextBounded(n));
  const int b =
      spanning ? (a + 1 + static_cast<int>(rng->NextBounded(n - 1))) % n : a;
  return Work{Payment(a, b), spanning ? 2 : 1, a * n + b};
}

tpm::Status PayWorld::CheckInvariants() const {
  for (const auto& escrow : escrow_) {
    TPM_RETURN_IF_ERROR(escrow->CheckInvariants());
  }
  return tpm::Status::OK();
}

std::vector<tpm::Subsystem*> PayWorld::Subsystems() {
  std::vector<tpm::Subsystem*> out;
  for (const auto& escrow : escrow_) out.push_back(escrow.get());
  return out;
}

const tpm::ProcessDef* PayWorld::Payment(int reserve_tenant,
                                         int settle_tenant) const {
  return defs_[reserve_tenant][settle_tenant].get();
}

int64_t PayWorld::Reserved(int tenant) const {
  return escrow_[tenant]->BalanceOf("res");
}

int64_t PayWorld::Settled(int tenant) const {
  return escrow_[tenant]->BalanceOf("set");
}

namespace {

tpm::ShardedWorldOptions OrderWorldOptions(uint64_t seed, int tenants) {
  tpm::ShardedWorldOptions options;
  options.seed = seed;
  options.num_tenants = tenants;
  return options;
}

}  // namespace

OrderWorld::OrderWorld(uint64_t seed, int tenants, int variants,
                       double span_share)
    : world_(OrderWorldOptions(seed, tenants)), span_share_(span_share) {
  catalogue_.assign(tenants,
                    std::vector<std::vector<const tpm::ProcessDef*>>(3));
  for (int t = 0; t < tenants; ++t) {
    for (int v = 0; v < variants; ++v) {
      catalogue_[t][0].push_back(world_.MakeOrderProcess(
          t, tpm::StrCat("order_t", t, "_v", v), v));
      catalogue_[t][1].push_back(world_.MakeConsumeProcess(
          t, tpm::StrCat("consume_t", t, "_v", v), v));
      catalogue_[t][2].push_back(world_.MakeRefillProcess(
          t, tpm::StrCat("refill_t", t, "_v", v), v));
    }
    // Neighbouring tenants, which the packing places on different shards.
    spans_.push_back(world_.MakeSpanningProcess(tpm::StrCat("span_t", t), t,
                                                (t + 1) % tenants));
  }
  for (const auto& tenant : catalogue_) {
    for (const auto& shape : tenant) {
      for (const tpm::ProcessDef* def : shape) ok_ = ok_ && def != nullptr;
    }
  }
  for (const tpm::ProcessDef* def : spans_) ok_ = ok_ && def != nullptr;
}

tpm::Status OrderWorld::Register(tpm::ShardedRuntime* runtime) {
  return world_.RegisterAll(runtime);
}

std::map<std::string, const tpm::ProcessDef*> OrderWorld::DefsByName() const {
  return world_.DefsByName();
}

Work OrderWorld::Next(tpm::Rng* rng) const {
  if (rng->NextBool(span_share_)) {
    const int t = static_cast<int>(rng->NextBounded(spans_.size()));
    return Work{spans_[t], 2, t};
  }
  const int t = static_cast<int>(rng->NextBounded(catalogue_.size()));
  const int roll = static_cast<int>(rng->NextBounded(4));
  const int shape = roll == 0 ? 0 : (roll == 3 ? 2 : 1);
  const int v = static_cast<int>(rng->NextBounded(catalogue_[t][shape].size()));
  return Work{catalogue_[t][shape][v], 1, t};
}

const tpm::ProcessDef* OrderWorld::Probe() const { return catalogue_[0][2][0]; }

tpm::Status OrderWorld::CheckInvariants() const {
  return world_.CheckAdtInvariants();
}

std::vector<tpm::Subsystem*> OrderWorld::Subsystems() {
  std::vector<tpm::Subsystem*> out;
  for (int t = 0; t < world_.num_tenants(); ++t) {
    for (tpm::Subsystem* s :
         {static_cast<tpm::Subsystem*>(world_.kv(t)),
          static_cast<tpm::Subsystem*>(world_.escrow(t)),
          static_cast<tpm::Subsystem*>(world_.queue(t))}) {
      if (!s->services().AllIds().empty()) out.push_back(s);
    }
  }
  return out;
}

tpm::ColocationGroups OrderWorld::Colocations() const {
  tpm::ColocationGroups groups;
  for (int t = 0; t < world_.num_tenants(); ++t) {
    groups.push_back(world_.TenantServices(t));
  }
  return groups;
}

std::string RunDir(const Args& args) {
  return (std::filesystem::path(args.work_dir) /
          tpm::StrCat(args.workload, "-", ::getpid()))
      .string();
}

std::string FreshDir(const Args& args, const std::string& tag) {
  const std::filesystem::path dir = std::filesystem::path(RunDir(args)) / tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return ec ? std::string() : dir.string();
}

void RemoveDir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

double DirBytes(const std::string& dir) {
  double bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += static_cast<double>(entry.file_size(ec));
    }
  }
  return bytes;
}

tpm::Status TimeConflictDerivation(World* world, int shards,
                                   Tracer* tracer) {
  const std::vector<tpm::Subsystem*> subsystems = world->Subsystems();
  tpm::ConflictSpec spec;
  const int64_t derive_start = NowNs();
  for (tpm::Subsystem* subsystem : subsystems) {
    subsystem->services().DeriveConflicts(&spec);
  }
  tracer->Add("subsystem.derive_conflicts", derive_start, NowNs());
  tpm::ColocationGroups groups;
  for (tpm::Subsystem* subsystem : subsystems) {
    std::vector<tpm::ServiceId> ids = subsystem->services().AllIds();
    if (ids.size() >= 2) groups.push_back(std::move(ids));
  }
  const tpm::ColocationGroups extra = world->Colocations();
  groups.insert(groups.end(), extra.begin(), extra.end());
  const int64_t partition_start = NowNs();
  tpm::Result<tpm::ConflictPartition> partition =
      tpm::ComputeConflictPartition(spec, shards, groups);
  tracer->Add("runtime.partition", partition_start, NowNs());
  return partition.status();
}

Restart TimedRestart(const tpm::ShardedRuntimeOptions& options, World* world,
                     size_t expected_per_shard, Tracer* tracer) {
  Restart r;
  r.recorder = std::make_unique<ProcessRecorder>(
      options.num_shards, expected_per_shard, tracer->enabled());
  r.runtime = std::make_unique<tpm::ShardedRuntime>(options);
  r.status = r.runtime->AddObserver(r.recorder.get());
  if (r.status.ok()) r.status = world->Register(r.runtime.get());
  if (!r.status.ok()) return r;

  const int64_t begin = NowNs();
  r.status = r.runtime->Start();
  const int64_t started = NowNs();
  if (r.status.ok()) r.status = r.runtime->Recover(world->DefsByName());
  const int64_t recovered = NowNs();
  tpm::SubmitTicket ticket;
  if (r.status.ok()) {
    tpm::Result<tpm::SubmitTicket> submitted =
        r.runtime->Submit(world->Probe());
    r.status = submitted.status();
    if (submitted.ok()) ticket = std::move(*submitted);
  }
  if (r.status.ok()) r.status = r.runtime->Drain();
  const int64_t probed = NowNs();
  if (!r.status.ok()) return r;

  tpm::Result<tpm::ProcessId> pid = ticket.Await();
  if (!pid.ok()) {
    r.status = pid.status();
    return r;
  }
  const ProcessRecorder::Entry* entry = r.recorder->Find(ticket.shard, *pid);
  r.probe_committed =
      entry != nullptr && entry->outcome == tpm::ProcessOutcome::kCommitted;
  r.start_s = static_cast<double>(started - begin) / 1e9;
  r.recover_s = static_cast<double>(recovered - started) / 1e9;
  r.probe_s = static_cast<double>(probed - recovered) / 1e9;
  r.total_s = static_cast<double>(probed - begin) / 1e9;
  r.recover_begin_ns = started;
  r.recover_end_ns = recovered;
  Heartbeat();
  const int64_t restart = tracer->Add("bench.restart", begin, probed);
  tracer->Add("runtime.start", begin, started, restart);
  tracer->Add("runtime.recover", started, recovered, restart);
  tracer->Add("bench.probe", recovered, probed, restart);
  return r;
}

}  // namespace tpmbench
