// The bounded-buffer micro-benchmark grid behind Figures 2.3-2.5: producers ×
// consumers × buffer size × mechanism, reporting seconds per trial exactly as the
// paper's panels plot them.
#ifndef TCS_BENCH_BOUNDED_GRID_H_
#define TCS_BENCH_BOUNDED_GRID_H_

#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/mechanism.h"
#include "src/tm/tm_config.h"

namespace tcs {

struct BoundedGridOptions {
  Backend backend = Backend::kEagerStm;
  // Figures 2.3/2.4 include Retry-Orig; Figure 2.5 (HTM) cannot (§2.1).
  bool include_retry_orig = true;
  // Total elements produced (and consumed) per trial. The paper uses 2^20; the
  // default here is scaled down for container-class hardware (override with
  // --ops). The buffer is half-filled before each trial (§2.4.1).
  std::uint64_t ops = 1 << 14;
  std::uint64_t trials = 3;
  // Keep oversubscribed panels bounded on tiny machines: skip producer/consumer
  // counts above this (override with --max_side).
  int max_side = 8;
};

// One measured grid point; bench_main serializes these.
struct BoundedGridRow {
  int producers;
  int consumers;
  std::uint64_t buffer_size;
  Mechanism mech;
  double mean_s;
  double stddev_s;
};

// Runs the full grid and returns one row per (panel, buffer size, mechanism).
std::vector<BoundedGridRow> CollectBoundedGrid(const BoundedGridOptions& opts);

// Applies --paper (the paper's full grid: producers and consumers up to 8,
// 2^20 ops, 5 trials), then --ops/--trials/--max_side, so explicit flags win.
BoundedGridOptions ApplyFlags(BoundedGridOptions opts, const BenchFlags& flags);

}  // namespace tcs

#endif  // TCS_BENCH_BOUNDED_GRID_H_
