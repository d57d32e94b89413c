#include "bench/condsync_ablations.h"

#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/assert.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"

namespace tcs {
namespace {

bool ThresholdPred(TmSystem& sys, const WaitArgs& args) {
  const auto* counter = reinterpret_cast<const TVar<std::uint64_t>*>(args.v[0]);
  return sys.Read(counter->word()) >= args.v[1];
}

// Blocks until exactly `n` waiters are registered asleep. Every sleep is
// counted before the waiter can be woken, and every wakeup by its waker before
// that writer's commit returns, so sleeps − wakeups only climbs between two of
// this bench's writer commits, and reaching `n` means all `n` are asleep.
void AwaitSleepers(Runtime& rt, std::uint64_t n) {
  const double deadline = NowSec() + 30.0;
  for (;;) {
    TxStats st = rt.AggregateStats();
    if (st.Get(Counter::kSleeps) - st.Get(Counter::kWakeups) == n) {
      return;
    }
    TCS_CHECK_MSG(NowSec() < deadline, "waiters never went back to sleep");
    std::this_thread::yield();
  }
}

}  // namespace

WakeupPrecisionRow RunWakeupPrecision(Backend backend, Mechanism mech,
                                      std::uint64_t steps) {
  TmConfig cfg;
  cfg.backend = backend;
  cfg.max_threads = 16;
  Runtime rt(cfg);
  TVar<std::uint64_t> counter(0);
  constexpr int kWaiters = 4;
  std::vector<std::uint64_t> thresholds;
  for (int w = 1; w <= kWaiters; ++w) {
    thresholds.push_back(static_cast<std::uint64_t>(w) * steps / kWaiters);
  }

  double t0 = NowSec();
  std::vector<std::thread> waiters;
  for (std::uint64_t threshold : thresholds) {
    waiters.emplace_back([&, threshold] {
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(counter) < threshold) {
          switch (mech) {
            case Mechanism::kWaitPred: {
              WaitArgs args;
              args.v[0] = reinterpret_cast<TmWord>(&counter);
              args.v[1] = threshold;
              args.n = 2;
              tx.WaitPred(&ThresholdPred, args);
            }
            case Mechanism::kAwait:
              tx.Await(counter);
            default:
              tx.Retry();
          }
        }
      });
    });
  }
  for (std::uint64_t c = 0; c < steps; ++c) {
    std::uint64_t waiting = 0;
    for (std::uint64_t threshold : thresholds) {
      waiting += threshold > c ? 1 : 0;
    }
    AwaitSleepers(rt, waiting);
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(counter, c + 1); });
  }
  for (auto& w : waiters) {
    w.join();
  }
  double t1 = NowSec();

  TxStats st = rt.AggregateStats();
  return {backend,
          mech,
          steps,
          st.Get(Counter::kSleeps),
          st.Get(Counter::kWakeups),
          st.Get(Counter::kWakeChecks),
          st.Get(Counter::kFalseWakeups),
          st.Get(Counter::kWaitsetEntries),
          t1 - t0};
}

WaitsetPruningRow RunWaitsetPruning(Backend backend, Mechanism mech,
                                    bool targeted, std::uint64_t extra_reads,
                                    std::uint64_t commits) {
  TmConfig cfg;
  cfg.backend = backend;
  cfg.max_threads = 8;
  cfg.targeted_wakeup = targeted;
  Runtime rt(cfg);
  std::vector<TVar<std::uint64_t>> table(extra_reads);
  for (auto& cell : table) {
    cell.UnsafeWrite(1);
  }
  TVar<std::uint64_t> flag(0);
  TVar<std::uint64_t> unrelated(0);

  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      // The transaction's read set includes the whole table...
      std::uint64_t sum = 0;
      for (auto& cell : table) {
        sum += tx.Load(cell);
      }
      if (tx.Load(flag) + sum == sum) {  // flag == 0: not released yet
        if (mech == Mechanism::kAwait) {
          tx.Await(flag);  // ...but Await waits on one word only
        }
        tx.Retry();  // ...while Retry waits on all of them
      }
    });
  });
  AwaitSleepers(rt, 1);
  // Writer phase: commits that do NOT satisfy the waiter.
  const std::uint64_t checks0 = rt.AggregateStats().Get(Counter::kWakeChecks);
  double t0 = NowSec();
  for (std::uint64_t i = 1; i <= commits; ++i) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(unrelated, i); });
  }
  double t1 = NowSec();
  const std::uint64_t checks =
      rt.AggregateStats().Get(Counter::kWakeChecks) - checks0;
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();

  const double n = static_cast<double>(commits);
  return {backend,
          mech,
          targeted,
          extra_reads,
          commits,
          rt.AggregateStats().Get(Counter::kWaitsetEntries),
          checks,
          checks / n,
          (t1 - t0) * 1e9 / n};
}

}  // namespace tcs
