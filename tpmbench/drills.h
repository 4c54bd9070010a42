// Crash drills: a world is crashed at a deterministic lockstep cut on a
// file WAL, then a fresh runtime restarts over the crashed log with
// verification on. recovery_s is the median over a run's drills.

#ifndef TPMBENCH_DRILLS_H_
#define TPMBENCH_DRILLS_H_

#include <functional>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "worlds.h"

namespace tpmbench {

/// The cut: `processes` submissions, then `ticks` lockstep rounds, then
/// Stop without draining. A run makes `drills` of them.
struct DrillConfig {
  int processes = 0;
  int64_t ticks = 0;
  int drills = 0;
};

/// Timed restarts of one run and the recovery breakdown.
struct RecoveryFigures {
  std::vector<double> total_s;
  std::vector<double> start_s;
  std::vector<double> probe_s;
  double replay_s = 0;
  double pred_verify_s = 0;
  double procrec_verify_s = 0;
  double global_projection_s = 0;
  /// Verification on Recover's critical path: the slowest shard, plus the
  /// global projection's check.
  double verify_path_s = 0;
};

/// The crash drills of one run. Run() makes the next drills, so that a
/// workload can spread them over its run. Drill k crashes a fresh world
/// from `make_world(k)` with its own input seed, so one run's median
/// covers several histories. Every restart is gated against its crash. A
/// traced run also times the analyzers and GlobalProjection after drill 0.
class RecoveryDrills {
 public:
  RecoveryDrills(const Args& args,
                 std::function<std::unique_ptr<World>(int)> make_world,
                 const DrillConfig& config, Tracer* tracer, Report* report);

  /// Runs the next `count` drills, no further than `config.drills`.
  void Run(int count);
  /// Gates that the same seed leaves the same crashed WAL, times a bare
  /// replay (verification off) of drill 0's crash in a traced run, and
  /// reports recovery_s, the median restart, with the recovery per-layer
  /// figures.
  void Finish();

  const DrillConfig& config() const { return config_; }

 private:
  const Args& args_;
  const std::function<std::unique_ptr<World>(int)> make_world_;
  const DrillConfig config_;
  Tracer* const tracer_;
  Report* const report_;
  int next_ = 0;
  bool failed_ = false;
  double first_wal_bytes_ = -1;
  RecoveryFigures figures_;
};

}  // namespace tpmbench

#endif  // TPMBENCH_DRILLS_H_
