// Ablation: batched wake transactions vs the paper's per-candidate wake path.
//
// N waiters park on N disjoint cells; one hot producer repeatedly commits to
// cell 0 under the *global-scan* wake path, so every producer commit
// wake-checks all N registered waiters. With wake_batch_size=1 (Algorithm 4)
// each check runs in its own internal transaction — N clock RMWs and tx
// setups/commits per producer commit. Batching coalesces up to `batch` checks
// into one wake transaction: wake_batches_per_commit tracks
// ceil(candidates / batch), and producer commits/sec is the wake-path
// throughput win.
//
// The run doubles as a correctness gate for CI: after each sweep point, a
// deterministic no-lost-wakeup phase parks `--verify_waiters` threads and
// satisfies each exactly once; if any waiter fails to wake within the
// deadline, the binary prints the failure and exits nonzero (the bench-smoke
// job fails).
//
// A CAS fast-path acceptance sweep rides along: 1–4 disjoint waiters on the
// targeted wake path, fast path off vs on. The fast path must STRICTLY reduce
// wake transactions per commit, and the common case must claim with zero wake
// transactions; a violation exits nonzero.
//
// Flags: --commits=N --waiters=a,b,... (default 256; the paper-scale sweep is
//        256,1024) --batches=a,b,... (default 1,4,8,16) --backend=0|1|2
//        --verify_waiters=N --cas=0|1 (batch-sweep fast path, default 0)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/wake_scenarios.h"
#include "src/condsync/wake_index.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"

// mo-edge: [harness] (minimal: release/acquire) — test/bench harness
// coordination: flags and counters published by worker threads and
// observed by the test body or sibling threads (often additionally
// ordered by thread join). acquire/release is a uniform upper bound
// chosen over per-site minimality; none of these sites needs seq_cst
// totality.

namespace {

struct PaddedCell {
  alignas(64) tcs::TVar<std::uint64_t> v;
};

// Parks `waiters` threads on disjoint cells, satisfies each exactly once, and
// requires every waiter to wake within `deadline`. Returns false (after
// printing the failure) on a lost wakeup.
bool VerifyNoLostWakeups(tcs::Backend backend, int batch, bool cas,
                         int waiters, std::chrono::seconds deadline) {
  using namespace tcs;
  TmConfig cfg;
  cfg.backend = backend;
  cfg.max_threads = waiters + 8;
  cfg.wake_batch_size = batch;
  cfg.cas_claim_fast_path = cas;
  Runtime rt(cfg);
  auto cells = std::make_unique<PaddedCell[]>(static_cast<std::size_t>(waiters));
  std::atomic<int> woken{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(waiters));
  for (int w = 0; w < waiters; ++w) {
    threads.emplace_back([&, w] {
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(cells[w].v) == 0) {
          tx.Retry();
        }
      });
      // mo: acq_rel — [harness] cross-thread counter/flag RMW.
      woken.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  while (rt.sys().wake_index().RegisteredCount() < waiters) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (int w = 0; w < waiters; ++w) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[w].v, std::uint64_t{1}); });
  }
  auto until = std::chrono::steady_clock::now() + deadline;
  // mo: acquire — [harness] observe worker-published state.
  while (woken.load(std::memory_order_acquire) < waiters) {
    if (std::chrono::steady_clock::now() >= until) {
      std::fprintf(stderr,
                   "LOST WAKEUP: backend=%s batch=%d — %d of %d waiters woke\n",
                   // mo: acquire — [harness] observe worker-published state.
                   BackendName(backend), batch, woken.load(std::memory_order_acquire), waiters);
      std::fprintf(stderr, "wake-batching verification FAILED\n");
      // Exit here on purpose: the stuck waiters (and the runtime they point
      // into) cannot be torn down, and unwinding past joinable threads would
      // std::terminate before the failure message mattered.
      std::exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : threads) {
    t.join();
  }
  if (!rt.sys().wake_index().Empty() ||
      rt.sys().wake_index().RegisteredCount() != 0) {
    std::fprintf(stderr, "LEAKED WAKE ENTRY: backend=%s batch=%d\n",
                 BackendName(backend), batch);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcs;
  BenchFlags flags(argc, argv,
                   {"commits", "backend", "waiters", "batches",
                    "verify_waiters", "cas"});
  std::uint64_t commits = flags.GetU64("commits", 600);
  Backend backend = static_cast<Backend>(flags.GetU64("backend", 0));
  std::vector<int> waiter_counts = flags.GetIntList("waiters", {256});
  std::vector<int> batch_sizes = flags.GetIntList("batches", {1, 4, 8, 16});
  int verify_waiters =
      static_cast<int>(flags.GetU64("verify_waiters", 64));
  const bool sweep_cas = flags.GetU64("cas", 0) != 0;

  PrintHeader("Ablation: batched wake transactions vs per-candidate wake path",
              "N disjoint waiters, 1 hot producer, global-scan wake path; "
              "each commit wake-checks all N — batching coalesces the checks "
              "into shared internal transactions");
  std::printf("# backend=%s commits=%llu\n", BackendName(backend),
              static_cast<unsigned long long>(commits));
  std::printf("%-8s %-7s %14s %18s %18s %18s %10s\n", "waiters", "batch",
              "wake_batches", "batches_per_commit", "checks_per_commit",
              "commits_per_sec", "speedup");

  bool ok = true;
  for (int n : waiter_counts) {
    double base_cps = 0.0;
    for (int batch : batch_sizes) {
      WakeTrialOptions opts;
      opts.backend = backend;
      opts.targeted = false;  // global scan: every commit checks everyone
      opts.waiters = n;
      opts.producer_commits = commits;
      opts.wake_batch_size = batch;
      opts.cas_claim_fast_path = sweep_cas;
      WakeTrialResult r = RunWakeIndexTrial(opts);
      if (batch == batch_sizes.front()) {
        base_cps = r.commits_per_sec;
      }
      double speedup = base_cps > 0 ? r.commits_per_sec / base_cps : 0.0;
      std::printf("%-8d %-7d %14llu %18.2f %18.2f %18.0f %9.2fx\n", n, batch,
                  static_cast<unsigned long long>(r.wake_batches),
                  r.wake_batches_per_commit, r.wake_checks_per_commit,
                  r.commits_per_sec, speedup);
      ok = ok && VerifyNoLostWakeups(backend, batch, sweep_cas, verify_waiters,
                                     std::chrono::seconds(60));
    }
  }

  // CAS fast-path acceptance: 1–4 disjoint waiters on the targeted wake path.
  // The fast path must strictly reduce wake transactions per commit, and the
  // common case must claim without ANY wake transaction.
  std::printf("\n# CAS fast-path acceptance (targeted, disjoint waiters)\n");
  std::printf("%-8s %-5s %14s %18s %14s\n", "waiters", "cas", "wake_batches",
              "batches_per_commit", "cas_claims");
  for (int n : {1, 2, 4}) {
    std::uint64_t batches_off = 0;
    std::uint64_t batches_on = 0;
    std::uint64_t claims_on = 0;
    for (bool cas : {false, true}) {
      WakeTrialOptions opts;
      opts.backend = backend;
      opts.targeted = true;
      opts.waiters = n;
      opts.producer_commits = commits;
      opts.cas_claim_fast_path = cas;
      WakeTrialResult r = RunWakeIndexTrial(opts);
      std::printf("%-8d %-5s %14llu %18.3f %14llu\n", n, cas ? "on" : "off",
                  static_cast<unsigned long long>(r.wake_batches),
                  r.wake_batches_per_commit,
                  static_cast<unsigned long long>(r.cas_claims));
      if (cas) {
        batches_on = r.wake_batches;
        claims_on = r.cas_claims;
      } else {
        batches_off = r.wake_batches;
      }
    }
    // Strict reduction, and the common case claims without a wake tx. The
    // residue allowance (commits/10) covers the racing-re-registration
    // window, where the registration transaction holds the slot's orec and
    // the fast path correctly falls back.
    if (batches_on >= batches_off || batches_on > commits / 10 ||
        claims_on == 0) {
      std::fprintf(stderr,
                   "CAS FAST PATH REGRESSION: waiters=%d wake_batches "
                   "off=%llu on=%llu cas_claims=%llu (want on << off, "
                   "claims > 0)\n",
                   n, static_cast<unsigned long long>(batches_off),
                   static_cast<unsigned long long>(batches_on),
                   static_cast<unsigned long long>(claims_on));
      ok = false;
    }
    ok = ok && VerifyNoLostWakeups(backend, batch_sizes.back(), /*cas=*/true,
                                   verify_waiters, std::chrono::seconds(60));
  }

  if (!ok) {
    std::fprintf(stderr, "wake-batching verification FAILED\n");
    return 1;
  }
  std::printf("# no-lost-wakeup verification passed (%d waiters per point)\n",
              verify_waiters);
  return 0;
}
