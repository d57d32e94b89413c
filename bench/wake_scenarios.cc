#include "bench/wake_scenarios.h"

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/condsync/wake_index.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"

namespace tcs {

namespace {

// One cell per cache line so the cells stay in distinct orecs on every
// backend, including the simulated HTM's line-granular table — the scenarios
// are about *which* waiters a write concerns, so orec aliasing between cells
// would muddy the measurement.
struct PaddedCell {
  alignas(64) TVar<std::uint64_t> v;
};

constexpr std::uint64_t kStop = ~std::uint64_t{0};

}  // namespace

const char* WaitsetShapeName(WaitsetShape s) {
  return s == WaitsetShape::kDisjoint ? "disjoint" : "overlapping";
}

WakeTrialResult RunWakeIndexTrial(const WakeTrialOptions& opts) {
  TmConfig cfg;
  cfg.backend = opts.backend;
  cfg.max_threads = opts.waiters + 8;
  cfg.targeted_wakeup = opts.targeted;
  if (opts.num_shards > 0) {
    cfg.wake_index_shards = opts.num_shards;
  }
  if (opts.wake_batch_size > 0) {
    cfg.wake_batch_size = opts.wake_batch_size;
  }
  cfg.cas_claim_fast_path = opts.cas_claim_fast_path;
  Runtime rt(cfg);

  const int waiters = opts.waiters;
  const bool overlap = opts.shape == WaitsetShape::kOverlapping;
  auto cells = std::make_unique<PaddedCell[]>(static_cast<std::size_t>(waiters));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(waiters));
  for (int w = 0; w < waiters; ++w) {
    threads.emplace_back([&, w] {
      std::uint64_t last_seen = 0;
      for (;;) {
        std::uint64_t v = Atomically(rt.sys(), [&](Tx& tx) -> std::uint64_t {
          std::uint64_t cur = tx.Load(cells[w].v);
          if (overlap) {
            // The neighbor read widens the waitset to {w, w+1}: a write to
            // the neighbor's cell now wakes this waiter too (a false wakeup
            // unless its own cell moved), which is exactly the overlapping
            // shape the index must stay precise under.
            (void)tx.Load(cells[(w + 1) % waiters].v);
          }
          if (cur == last_seen) {
            tx.Retry();
          }
          return cur;
        });
        if (v == kStop) {
          return;
        }
        last_seen = v;
      }
    });
  }

  // Every waiter must be parked before the clock starts, or the trial measures
  // thread startup instead of wake-path cost.
  while (rt.sys().wake_index().RegisteredCount() < waiters) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  rt.ResetStats();

  double t0 = NowSec();
  for (std::uint64_t i = 1; i <= opts.producer_commits; ++i) {
    // A silent producer re-stores 0 (the parked value): still a writer commit
    // that pays the wake path, but no waiter is ever satisfied.
    std::uint64_t val = opts.silent_producer ? 0 : i;
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[0].v, val); });
  }
  double t1 = NowSec();
  TxStats st = rt.AggregateStats();
  // Latency distributions cover the hot phase only: ResetStats above cleared
  // the histograms, and the snapshot lands before the release commits.
  TmSystem::ObsSnapshot obs = rt.sys().SnapshotObs();

  // Release: one commit per cell, in index order so an overlap neighbor that
  // gets falsely woken by cell w's release has already exited (it was waiter
  // w-1). Per-cell commits also keep the shutdown path identical to the
  // measured one.
  for (int w = 0; w < waiters; ++w) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[w].v, kStop); });
  }
  for (auto& t : threads) {
    t.join();
  }

  WakeTrialResult r;
  r.backend = opts.backend;
  r.targeted = opts.targeted;
  r.waiters = waiters;
  r.num_shards = rt.config().wake_index_shards;
  r.shape = opts.shape;
  r.silent_producer = opts.silent_producer;
  r.wake_batch_size = rt.config().wake_batch_size;
  r.producer_commits = opts.producer_commits;
  r.seconds = t1 - t0;
  r.commits_per_sec =
      r.seconds > 0 ? static_cast<double>(opts.producer_commits) / r.seconds
                    : 0.0;
  r.cas_claim_fast_path = rt.config().cas_claim_fast_path;
  r.wake_checks = st.Get(Counter::kWakeChecks);
  r.wake_batches = st.Get(Counter::kWakeBatches);
  r.cas_claims = st.Get(Counter::kCasWakeClaims);
  r.cas_fallbacks = st.Get(Counter::kCasClaimFallbacks);
  r.wake_tx_aborts = st.Get(Counter::kWakeTxAborts);
  r.wakeups = st.Get(Counter::kWakeups);
  // Precision rows must not credit conservative empty-waitset posts as
  // genuine wakes (they inflate wake-precision metrics).
  r.vacuous_wakeups = st.Get(Counter::kVacuousWakeups);
  r.genuine_wakeups = r.wakeups - r.vacuous_wakeups;
  r.spin_wakeups = st.Get(Counter::kSpinWakeups);
  r.wake_checks_per_commit = static_cast<double>(r.wake_checks) /
                             static_cast<double>(opts.producer_commits);
  r.wake_batches_per_commit = static_cast<double>(r.wake_batches) /
                              static_cast<double>(opts.producer_commits);
  r.commit_latency_count = obs.commit_latency.Count();
  r.commit_p50_ns = obs.commit_latency.Percentile(50);
  r.commit_p99_ns = obs.commit_latency.Percentile(99);
  r.commit_p999_ns = obs.commit_latency.Percentile(99.9);
  r.wake_latency_count = obs.wake_latency.Count();
  r.wake_p50_ns = obs.wake_latency.Percentile(50);
  r.wake_p99_ns = obs.wake_latency.Percentile(99);
  r.wake_p999_ns = obs.wake_latency.Percentile(99.9);
  return r;
}

WakeTrialResult RunWakeIndexTrial(Backend backend, bool targeted, int waiters,
                                  std::uint64_t producer_commits) {
  WakeTrialOptions opts;
  opts.backend = backend;
  opts.targeted = targeted;
  opts.waiters = waiters;
  opts.producer_commits = producer_commits;
  return RunWakeIndexTrial(opts);
}

}  // namespace tcs
