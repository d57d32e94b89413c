// Ablation: Await's waitset pruning (§2.4.2 — "Await effectively prunes the set
// of locations on which a sleeping transaction waits. This, in turn, reduces
// overhead in wakeWaiters, saving time after every transaction commit").
//
// A waiter reads K unrelated words before waiting on one flag; writers then
// commit repeatedly. With Retry, every writer commit re-validates a K+1-entry
// waitset; with Await (and WaitPred) the waitset is a single entry, independent
// of K.
//
// Flags: --commits=N (K sweeps 0, 64, 512 and 4096).
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"

namespace tcs {
namespace {

struct Row {
  std::uint64_t extra_reads;
  const char* mech;
  std::uint64_t waitset_entries;
  double writer_seconds;  // time for the writer-commit phase (wakeWaiters cost)
};

Row RunOne(Mechanism mech, std::uint64_t extra_reads, std::uint64_t commits) {
  TmConfig cfg;
  cfg.backend = Backend::kEagerStm;
  cfg.max_threads = 8;
  Runtime rt(cfg);
  std::vector<TVar<std::uint64_t>> table(extra_reads + 1);
  for (auto& cell : table) {
    cell.UnsafeWrite(1);
  }
  TVar<std::uint64_t> flag(0);
  TVar<std::uint64_t> unrelated(0);

  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      // The transaction's read set includes the whole table...
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < extra_reads; ++i) {
        sum += tx.Load(table[i]);
      }
      if (tx.Load(flag) + sum == sum) {  // flag == 0: not released yet
        switch (mech) {
          case Mechanism::kAwait:
            tx.Await(flag);  // ...but Await waits on one word only
          default:
            tx.Retry();  // ...while Retry waits on all of them
        }
      }
    });
  });
  // Wait until the waiter is asleep.
  while (rt.AggregateStats().Get(Counter::kSleeps) == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // Writer phase: commits that do NOT satisfy the waiter, each paying one
  // wakeWaiters evaluation of the published waitset.
  double t0 = NowSec();
  for (std::uint64_t i = 0; i < commits; ++i) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(unrelated, i); });
  }
  double t1 = NowSec();
  // Release the waiter.
  Atomically(rt.sys(), [&](Tx& tx) {
    tx.Store(flag, std::uint64_t{1} << 62);
  });
  waiter.join();
  return {extra_reads, MechanismName(mech),
          rt.AggregateStats().Get(Counter::kWaitsetEntries), t1 - t0};
}

}  // namespace
}  // namespace tcs

int main(int argc, char** argv) {
  using namespace tcs;
  BenchFlags flags(argc, argv, {"commits"});
  std::uint64_t commits = flags.GetU64("commits", 5000);
  PrintHeader("Ablation: waitset pruning (Await vs Retry)",
              "writer-commit cost vs waiter read-set size; Await's waitset stays "
              "one entry while Retry's grows with the read set");
  std::printf("%-12s %-8s %16s %16s %18s\n", "extra_reads", "mech",
              "waitset_entries", "writer_seconds", "ns_per_commit");
  for (std::uint64_t k : {std::uint64_t{0}, std::uint64_t{64}, std::uint64_t{512},
                          std::uint64_t{4096}}) {
    for (Mechanism m : {Mechanism::kAwait, Mechanism::kRetry}) {
      Row r = RunOne(m, k, commits);
      std::printf("%-12llu %-8s %16llu %16.4f %18.1f\n",
                  static_cast<unsigned long long>(r.extra_reads), r.mech,
                  static_cast<unsigned long long>(r.waitset_entries),
                  r.writer_seconds,
                  r.writer_seconds * 1e9 / static_cast<double>(commits));
    }
  }
  return 0;
}
