// Per-thread event counters for the TM runtime and the condition-synchronization
// mechanisms. Counters feed the ablation benchmarks (wakeup precision, waitset
// sizes) and let tests assert behavioral properties (e.g. "a silent store must not
// wake the waiter") instead of timing.
#ifndef TCS_COMMON_STATS_H_
#define TCS_COMMON_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

namespace tcs {

enum class Counter : int {
  kCommits = 0,
  kReadOnlyCommits,
  kAborts,            // conflict/validation aborts
  kExplicitRestarts,  // Restart mechanism re-executions
  kRetryRestarts,     // first Retry() pass that re-executes to build the waitset
  kDeschedules,       // times a thread published itself and considered sleeping
  kSleeps,            // times a registered thread waited for its wake token
  kWakeups,           // wake-token posts made by wakeWaiters
  kWakeChecks,        // waitfunc evaluations performed by writers
  kFalseWakeups,      // woken but condition still unsatisfied on re-execution
  kHtmFallbacks,      // simulated HTM transitions to serial-irrevocable mode
  kHtmCapacityAborts,
  kHtmConflictAborts,
  kHtmExplicitAborts,
  kCondVarWaits,
  kCondVarSignals,
  kTimestampExtensions,  // eager OrElse orec releases that extended the
                         // transaction's timestamp
  kWaitsetEntries,  // total addr/value pairs logged across deschedules
  kQuiesceCalls,  // privatization fences run by writer commits; bumped after
                  // the commit releases its orecs, just before the fence waits
  kWaitTimeouts,       // timed waits that expired and returned kTimedOut
  kOrElseFallbacks,    // OrElse branches abandoned for their alternative
  kPartialRollbacks,   // savepoint rollbacks performed by OrElse
  kIndexedDeschedules,  // deschedules registered in the sharded wakeup index
  kGlobalDeschedules,   // deschedules on the index's global fallback list
  kWaitsetPruned,       // duplicate waitset entries dropped before publication
  kOrElseOrecReleases,  // orecs released by an abandoned OrElse branch
  kWakeBatches,        // internal wake transactions committed by wakeWaiters
  kWakeChecksBatched,  // wake checks that ran inside a committed wake batch
  kVacuousWakeups,     // conservative empty-waitset posts (no evidence the
                       // waiter was satisfied) — subtract from kWakeups for
                       // wake-precision metrics
  kTraceEvents,        // lifecycle events recorded into per-thread TraceRings
  kTraceDrops,         // ring-overflow overwrites (oldest record lost)
  kCasWakeClaims,      // waiter slots claimed by the lock-free CAS fast path
                       // (no wake transaction at all for these)
  kCasClaimFallbacks,  // fast-path attempts that bailed to the batched wake
                       // transaction (orec contention, mid-registration slot,
                       // serial-mode writer, inconsistent predicate snapshot)
  kWakeTxAborts,       // wake-transaction attempts that aborted and re-ran
                       // (batch lambda executions minus committed batches)
  kCondVarBatches,     // internal pop transactions committed by TMCondVar
                       // signal/broadcast delivery (each pops up to
                       // wake_batch_size tids)
  kCondVarRingGrowths,  // TMCondVar ring doublings forced by a full ring
                        // (the pre-fix code silently overwrote a parked tid)
  kSpinWakeups,  // Deschedule sleeps whose wake token arrived before the
                 // waiter blocked (ParkingLot's gated spin); subset of kSleeps
  kNumCounters,
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kNumCounters);

std::string_view CounterName(Counter c);

// Per-thread tally, but not strictly single-writer: the owning thread bumps,
// while monitors aggregate concurrently and harnesses may Reset() between
// trials. All access is relaxed-atomic; Bump is an RMW so a concurrent
// Reset() cannot be silently undone by a racing load+store.
struct TxStats {
  std::array<std::uint64_t, kNumCounters> counts{};

  void Bump(Counter c, std::uint64_t n = 1) {
    // mo: relaxed — statistics need atomicity (vs. concurrent Reset/readers),
    // not ordering; no other data is published through a counter.
    std::atomic_ref<std::uint64_t>(counts[static_cast<int>(c)])
        .fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Get(Counter c) const {
    // mo: relaxed — monitors tolerate slightly stale tallies; test assertions
    // read after joining the worker threads.
    return std::atomic_ref<const std::uint64_t>(counts[static_cast<int>(c)])
        .load(std::memory_order_relaxed);
  }
  void Reset() {
    // mo: relaxed — harnesses reset between trials while workers are parked;
    // Bump's RMW keeps a racing bump from being silently undone.
    for (int i = 0; i < kNumCounters; ++i) {
      std::atomic_ref<std::uint64_t>(counts[i]).store(0,
                                                      std::memory_order_relaxed);
    }
  }

  void MergeFrom(const TxStats& other) {
    // mo: relaxed — aggregation tolerates in-flight bumps; exact totals are
    // only asserted after joining.
    for (int i = 0; i < kNumCounters; ++i) {
      counts[i] += std::atomic_ref<const std::uint64_t>(other.counts[i])
                       .load(std::memory_order_relaxed);
    }
  }
};

}  // namespace tcs

#endif  // TCS_COMMON_STATS_H_
