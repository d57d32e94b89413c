// Two mechanism ablations behind bench_main's wakeup_precision and
// waitset_pruning scenarios: §2.3's precision tradeoff (WaitPred wakes a waiter
// only when its predicate holds; Retry and Await wake it on every change) and
// §2.4.2's waitset pruning (Await waits on the one word it names; Retry on its
// whole read set). Both report the runtime's event counters.
#ifndef TCS_BENCH_CONDSYNC_ABLATIONS_H_
#define TCS_BENCH_CONDSYNC_ABLATIONS_H_

#include <cstdint>

#include "src/core/mechanism.h"
#include "src/tm/tm_config.h"

namespace tcs {

// Four waiters wait for one counter to reach steps/4, steps/2, 3·steps/4 and
// steps; a writer increments it `steps` times. The writer is paced: before
// each increment it waits until every waiter whose threshold is still above
// the counter is registered asleep, so each increment reaches all of them.
// For steps divisible by 4 the counts are exact: WaitPred makes 4 wakeups, 0
// false wakeups and 2.5·steps wake checks; Retry and Await make 2.5·steps
// wakeups, all but the last per waiter false (2.5·steps − 4).
struct WakeupPrecisionRow {
  Backend backend;
  Mechanism mech;  // kWaitPred, kAwait or kRetry
  std::uint64_t steps;
  std::uint64_t sleeps;
  std::uint64_t wakeups;
  std::uint64_t wake_checks;
  std::uint64_t false_wakeups;
  std::uint64_t waitset_entries;
  double seconds;
};

WakeupPrecisionRow RunWakeupPrecision(Backend backend, Mechanism mech,
                                      std::uint64_t steps);

// One waiter reads `extra_reads` unrelated words, then waits on one flag;
// a writer then commits `commits` times to a word outside the waitset.
// Retry's waitset has extra_reads + 1 entries, Await's one. With the global
// scan (targeted off) every commit wake-checks the waiter, so Retry's cost
// grows with its waitset (§2.4.2's claim). With the wake index a commit
// checks the waiter only when the written word's shard is one of the
// waiter's shards, so the result depends on the address layout.
struct WaitsetPruningRow {
  Backend backend;
  Mechanism mech;  // kAwait or kRetry
  bool targeted;
  std::uint64_t extra_reads;
  std::uint64_t commits;
  std::uint64_t waitset_entries;
  std::uint64_t wake_checks;
  double wake_checks_per_commit;
  double ns_per_commit;
};

WaitsetPruningRow RunWaitsetPruning(Backend backend, Mechanism mech,
                                    bool targeted, std::uint64_t extra_reads,
                                    std::uint64_t commits);

}  // namespace tcs

#endif  // TCS_BENCH_CONDSYNC_ABLATIONS_H_
