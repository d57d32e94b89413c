// Per-thread observability state, embedded in TxDesc. Bundles the abort
// attribution tables, the four latency histograms, the trace ring, and the
// scratch timestamps the hooks in tm_system.cc / deschedule.cc thread
// through a transaction's lifetime.
//
// Everything here follows the TxStats concurrency contract: the owning
// thread writes, monitors merge on scan, harnesses reset between trials
// while workers are parked. The TraceRing member is always present (it is
// a handful of pointers when un-Init()ed); only the recording hooks and the
// Init call are compile-gated behind TCS_TRACING.
#ifndef TCS_OBS_THREAD_OBS_H_
#define TCS_OBS_THREAD_OBS_H_

#include <chrono>
#include <cstdint>

#include "src/obs/abort_attribution.h"
#include "src/obs/latency_histogram.h"
#include "src/obs/trace_ring.h"

namespace tcs {

// Steady-clock nanoseconds — the one timebase for all obs timestamps, so
// per-thread trace streams and cross-thread latency spans (wake post →
// resume) are comparable.
inline std::uint64_t ObsNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ThreadObs {
  AbortCauseTable causes;
  HotOrecTable hot_orecs;

  // Final-attempt begin → commit (the latency a caller observes for the
  // attempt that succeeded; restarts reset the clock).
  LatencyHistogram commit_latency;
  // First abort of a transaction → its eventual successful commit. Includes
  // any parked time in between — deliberately, since that is the price the
  // caller paid for contention/waiting.
  LatencyHistogram abort_to_commit;
  // Deschedule sleep → wake token consumed (how long waits actually last).
  LatencyHistogram wait_duration;
  // Waker's token post → waiter resume (wake-path hand-off cost).
  LatencyHistogram wake_latency;

  TraceRing ring;

  // Scratch, owner-thread only (reset by ResetDescAfterTx):
  std::uint64_t tx_begin_ns = 0;    // begin of the current attempt
  std::uint64_t first_abort_ns = 0; // first abort of the current transaction

  void ResetMetrics() {
    causes.Reset();
    hot_orecs.Reset();
    commit_latency.Reset();
    abort_to_commit.Reset();
    wait_duration.Reset();
    wake_latency.Reset();
    // The ring is a cumulative flight recorder — deliberately NOT cleared
    // here: ResetStats runs concurrently with owner threads, and the ring
    // is single-writer.
  }
};

}  // namespace tcs

#endif  // TCS_OBS_THREAD_OBS_H_
