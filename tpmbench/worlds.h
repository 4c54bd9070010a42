// The worlds the workloads run — the escrow payment tenants and the order
// economy — and the helpers every workload shares: the timed restart,
// conflict derivation timing, WAL directories.

#ifndef TPMBENCH_WORLDS_H_
#define TPMBENCH_WORLDS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "runtime/sharded_runtime.h"
#include "serving.h"
#include "subsystem/escrow_subsystem.h"
#include "workload/sharded_world.h"

namespace tpmbench {

/// A world the benchmark can serve, crash and restart. Its subsystems
/// survive a crash, as in the paper's model: only the scheduler
/// incarnation dies.
class World {
 public:
  virtual ~World() = default;
  /// False if building the world or its definitions failed.
  virtual bool ok() const = 0;
  virtual tpm::Status Register(tpm::ShardedRuntime* runtime) = 0;
  virtual std::map<std::string, const tpm::ProcessDef*> DefsByName()
      const = 0;
  /// The next generated process; every input comes from `rng`.
  virtual Work Next(tpm::Rng* rng) const = 0;
  /// A process that commits on any state of the world.
  virtual const tpm::ProcessDef* Probe() const = 0;
  virtual tpm::Status CheckInvariants() const = 0;
  virtual std::vector<tpm::Subsystem*> Subsystems() = 0;
  /// Colocation groups beyond the per-subsystem ones.
  virtual tpm::ColocationGroups Colocations() const { return {}; }
};

/// `tenants` escrow tenants. Tenant t owns two counters, `res` and `set`,
/// and the payment chain reserve (inc res, compensated by dec res) ->
/// settle (inc set, pivot). Every operation is an increment, so payments
/// commute. A share `span_share` of payments spans two tenants: reserve on
/// one, settle on the other. Work::tag is reserve_tenant * tenants +
/// settle_tenant.
class PayWorld : public World {
 public:
  PayWorld(int tenants, double span_share);

  bool ok() const override;
  tpm::Status Register(tpm::ShardedRuntime* runtime) override;
  std::map<std::string, const tpm::ProcessDef*> DefsByName() const override;
  Work Next(tpm::Rng* rng) const override;
  const tpm::ProcessDef* Probe() const override { return Payment(0, 0); }
  tpm::Status CheckInvariants() const override;
  std::vector<tpm::Subsystem*> Subsystems() override;

  const tpm::ProcessDef* Payment(int reserve_tenant, int settle_tenant) const;
  int64_t Reserved(int tenant) const;
  int64_t Settled(int tenant) const;
  int tenants() const { return static_cast<int>(escrow_.size()); }

 private:
  struct Services {
    tpm::ServiceId inc_res, dec_res, inc_set;
  };
  double span_share_;
  std::vector<std::unique_ptr<tpm::EscrowSubsystem>> escrow_;
  std::vector<Services> services_;
  /// defs_[a][b]: reserve on a, settle on b.
  std::vector<std::vector<std::unique_ptr<tpm::ProcessDef>>> defs_;
};

/// ShardedWorld's order economy with a catalogue of `variants` variants per
/// shape (order, consume, refill), drawn 1 : 2 : 1 towards consume so
/// stock and orders run dry and processes compensate and abort. A share
/// `span_share` of processes spans two tenants: an order enqueued on one
/// tenant, a stock deposit on the next. Work::tag is the tenant.
class OrderWorld : public World {
 public:
  OrderWorld(uint64_t seed, int tenants, int variants, double span_share);

  bool ok() const override { return ok_; }
  tpm::Status Register(tpm::ShardedRuntime* runtime) override;
  std::map<std::string, const tpm::ProcessDef*> DefsByName() const override;
  Work Next(tpm::Rng* rng) const override;
  const tpm::ProcessDef* Probe() const override;
  tpm::Status CheckInvariants() const override;
  std::vector<tpm::Subsystem*> Subsystems() override;
  tpm::ColocationGroups Colocations() const override;

 private:
  tpm::ShardedWorld world_;
  double span_share_;
  /// catalogue_[tenant][shape][variant].
  std::vector<std::vector<std::vector<const tpm::ProcessDef*>>> catalogue_;
  std::vector<const tpm::ProcessDef*> spans_;
  bool ok_ = true;
};

/// This process's directory under the work dir; main removes it at exit.
std::string RunDir(const Args& args);
/// Creates an empty directory under RunDir; "" on failure.
std::string FreshDir(const Args& args, const std::string& tag);
void RemoveDir(const std::string& dir);
/// Total size of the files in `dir`, in bytes.
double DirBytes(const std::string& dir);

/// Times the benchmark's own calls into the conflict layers: every
/// subsystem registry's DeriveConflicts into one spec, then
/// ComputeConflictPartition over it. Adds the two spans to `tracer`.
tpm::Status TimeConflictDerivation(World* world, int shards,
                                   Tracer* tracer);

/// One timed restart: a fresh runtime over `options` runs Start, Recover
/// (verification as configured) and then one probe process that must
/// commit. The runtime is returned still running. Adds a bench.restart
/// span with runtime.start, runtime.recover and bench.probe children.
struct Restart {
  tpm::Status status = tpm::Status::OK();
  bool probe_committed = false;
  double start_s = 0;
  double recover_s = 0;
  double probe_s = 0;
  double total_s = 0;
  /// Wall-clock bounds of the Recover call.
  int64_t recover_begin_ns = 0;
  int64_t recover_end_ns = 0;
  // The recorder outlives the runtime that reports to it.
  std::unique_ptr<ProcessRecorder> recorder;
  std::unique_ptr<tpm::ShardedRuntime> runtime;
};
Restart TimedRestart(const tpm::ShardedRuntimeOptions& options, World* world,
                     size_t expected_per_shard, Tracer* tracer);

}  // namespace tpmbench

#endif  // TPMBENCH_WORLDS_H_
