// Ablation: wakeup precision across the three mechanisms (§2.3's claimed
// tradeoff). Four waiters wait for a shared counter to reach different
// thresholds; one writer increments it one step at a time. WaitPred should wake
// each waiter exactly when its threshold is met; Retry/Await wake on *every*
// change (false wakeups). Reported from the runtime's event counters.
//
// Flags: --steps=N
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"

namespace tcs {
namespace {

bool ThresholdPred(TmSystem& sys, const WaitArgs& args) {
  const auto* counter = reinterpret_cast<const TVar<std::uint64_t>*>(args.v[0]);
  return sys.Read(counter->word()) >= args.v[1];
}

struct Row {
  const char* mech;
  std::uint64_t sleeps;
  std::uint64_t wakeups;
  std::uint64_t wake_checks;
  std::uint64_t false_wakeups;
  std::uint64_t waitset_entries;
  double seconds;
};

Row RunOne(Backend backend, Mechanism mech, std::uint64_t steps) {
  TmConfig cfg;
  cfg.backend = backend;
  cfg.max_threads = 16;
  Runtime rt(cfg);
  TVar<std::uint64_t> counter(0);
  constexpr int kWaiters = 4;

  double t0 = NowSec();
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      // Waiter w's threshold: evenly spread across the step range.
      std::uint64_t threshold = (static_cast<std::uint64_t>(w) + 1) * steps / kWaiters;
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
  // All four waiters must be asleep before the writer starts, or the sweep
  // degenerates (they would observe an already-satisfied counter and never wait).
  while (rt.AggregateStats().Get(Counter::kSleeps) < kWaiters) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (std::uint64_t s = 0; s < steps; ++s) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(counter, tx.Load(counter) + 1); });
  }
  for (auto& w : waiters) {
    w.join();
  }
  double t1 = NowSec();

  TxStats st = rt.AggregateStats();
  return {MechanismName(mech),
          st.Get(Counter::kSleeps),
          st.Get(Counter::kWakeups),
          st.Get(Counter::kWakeChecks),
          st.Get(Counter::kFalseWakeups),
          st.Get(Counter::kWaitsetEntries),
          t1 - t0};
}

}  // namespace
}  // namespace tcs

int main(int argc, char** argv) {
  using namespace tcs;
  BenchFlags flags(argc, argv, {"steps"});
  std::uint64_t steps = flags.GetU64("steps", 2000);
  PrintHeader("Ablation: wakeup precision",
              "4 threshold waiters, 1 incrementing writer; WaitPred wakes "
              "precisely, Retry/Await broadcast on every change");
  std::printf("# steps=%llu backend=eager-stm\n",
              static_cast<unsigned long long>(steps));
  std::printf("%-10s %8s %8s %12s %14s %16s %10s\n", "mechanism", "sleeps",
              "wakeups", "wake_checks", "false_wakeups", "waitset_entries",
              "seconds");
  for (Mechanism m :
       {Mechanism::kWaitPred, Mechanism::kAwait, Mechanism::kRetry}) {
    Row r = RunOne(Backend::kEagerStm, m, steps);
    std::printf("%-10s %8llu %8llu %12llu %14llu %16llu %10.4f\n", r.mech,
                static_cast<unsigned long long>(r.sleeps),
                static_cast<unsigned long long>(r.wakeups),
                static_cast<unsigned long long>(r.wake_checks),
                static_cast<unsigned long long>(r.false_wakeups),
                static_cast<unsigned long long>(r.waitset_entries),
                r.seconds);
  }
  return 0;
}
