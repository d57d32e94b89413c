// Table 2.1: lines of code added and removed for different condition-
// synchronization mechanisms in (mini-)PARSEC.
//
// The paper counts source lines changed when porting each benchmark from
// condition variables to WaitPred / Await / Retry. This regenerates the
// analogous table from *measured* source: for each app, it sums — over the
// app's synchronization points (whose kinds mirror the original benchmark's
// structure) — the per-mechanism arm of the adapter operation implementing
// that point, and reports the pthread/condvar code those arms replace as
// "removed". Counts are parsed from the adapter sources under src/sync/ on
// every run, so the table tracks the code.
#ifndef TCS_BENCH_LOC_TABLE_H_
#define TCS_BENCH_LOC_TABLE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace tcs {

struct LocTableRow {
  std::string app;
  std::size_t sync_points;  // the paper's parenthesized per-benchmark count
  int waitpred;
  int await;
  int retry;
  int removed;
};

// One row per mini-PARSEC app, in the paper's order. `source_dir` is the
// repository root the adapter sources are read from.
std::vector<LocTableRow> CountLocTable(const std::string& source_dir);

}  // namespace tcs

#endif  // TCS_BENCH_LOC_TABLE_H_
