// The workloads. Each fills `report` with every end-to-end metric,
// every per-layer metric (meaningful in a traced run), its run metadata
// and its correctness gates.

#ifndef TPMBENCH_WORKLOADS_H_
#define TPMBENCH_WORKLOADS_H_

#include <string>

#include "bench_util.h"

namespace tpmbench {

/// Runs the named workload; false if the name is unknown.
bool RunWorkload(const Args& args, Tracer* tracer, Report* report);

}  // namespace tpmbench

#endif  // TPMBENCH_WORKLOADS_H_
