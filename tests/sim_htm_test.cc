// Simulated-HTM specifics: capacity limits, the serial-irrevocable fallback and
// its progress rule, cache-line conflict granularity, and serial/hardware
// interaction under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <semaphore>
#include <thread>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/tm/sim_htm.h"
#include "tests/parked_tx.h"

// mo-edge: [harness] (minimal: release/acquire) — test/bench harness
// coordination: flags and counters published by worker threads and
// observed by the test body or sibling threads (often additionally
// ordered by thread join). acquire/release is a uniform upper bound
// chosen over per-site minimality; none of these sites needs seq_cst
// totality.

namespace tcs {
namespace {

TmConfig HtmConfig() {
  TmConfig cfg;
  cfg.backend = Backend::kSimHtm;
  cfg.max_threads = 16;
  return cfg;
}

TEST(SimHtmTest, ReadCapacityOverflowFallsBack) {
  TmConfig cfg = HtmConfig();
  cfg.htm_read_capacity_lines = 16;
  Runtime rt(cfg);
  std::vector<std::uint64_t> data(16 * 64, 1);  // far more lines than the budget
  std::uint64_t sum = Atomically(rt.sys(), [&](Tx& tx) {
    std::uint64_t s = 0;
    for (auto& d : data) {
      s += tx.Load(d);
    }
    return s;
  });
  EXPECT_EQ(sum, data.size());
  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kHtmCapacityAborts), 1u);
  EXPECT_GE(s.Get(Counter::kHtmFallbacks), 1u);
}

TEST(SimHtmTest, WriteCapacityOverflowFallsBack) {
  TmConfig cfg = HtmConfig();
  cfg.htm_write_capacity_lines = 8;
  Runtime rt(cfg);
  std::vector<std::uint64_t> data(8 * 64, 0);
  Atomically(rt.sys(), [&](Tx& tx) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      tx.Store(data[i], i);
    }
  });
  for (std::size_t i = 0; i < data.size(); i += 61) {
    EXPECT_EQ(data[i], i);
  }
  EXPECT_GE(rt.AggregateStats().Get(Counter::kHtmCapacityAborts), 1u);
}

TEST(SimHtmTest, SmallTransactionsNeverFallBack) {
  Runtime rt(HtmConfig());
  std::uint64_t x = 0;
  for (int i = 0; i < 500; ++i) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, tx.Load(x) + 1); });
  }
  EXPECT_EQ(x, 500u);
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kHtmFallbacks), 0u);
}

TEST(SimHtmTest, ZeroAttemptsForcesSerialEveryTime) {
  // The GCC progress rule taken to its extreme: every transaction is serial.
  TmConfig cfg = HtmConfig();
  cfg.htm_max_attempts = 0;
  Runtime rt(cfg);
  std::uint64_t x = 0;
  constexpr int kOps = 200;
  for (int i = 0; i < kOps; ++i) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, tx.Load(x) + 1); });
  }
  EXPECT_EQ(x, kOps);
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kHtmFallbacks),
            static_cast<std::uint64_t>(kOps));
}

TEST(SimHtmTest, SerialModeIsCorrectUnderConcurrency) {
  // All-serial execution must still be a correct (if slow) TM.
  TmConfig cfg = HtmConfig();
  cfg.htm_max_attempts = 0;
  Runtime rt(cfg);
  std::uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kOps = 500;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        Atomically(rt.sys(), [&](Tx& tx) { tx.Store(counter, tx.Load(counter) + 1); });
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kOps);
}

TEST(SimHtmTest, MixedSerialAndHardwareIsCorrect) {
  // Thread 0 runs large (always-fallback) transactions while others run small
  // hardware ones; the serial token must order them safely.
  TmConfig cfg = HtmConfig();
  cfg.htm_write_capacity_lines = 4;
  Runtime rt(cfg);
  std::vector<std::uint64_t> big(1024, 0);
  std::uint64_t small_counter = 0;
  std::atomic<bool> stop{false};

  std::thread big_writer([&] {
    for (int i = 1; i <= 50; ++i) {
      Atomically(rt.sys(), [&](Tx& tx) {
        for (auto& b : big) {
          tx.Store(b, static_cast<std::uint64_t>(i));
        }
      });
    }
    // mo: release — [harness] publish state to other harness threads.
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> small_writers;
  std::atomic<std::uint64_t> small_ops{0};
  for (int t = 0; t < 2; ++t) {
    small_writers.emplace_back([&] {
      // mo: acquire — [harness] observe worker-published state.
      while (!stop.load(std::memory_order_acquire)) {
        Atomically(rt.sys(), [&](Tx& tx) {
          tx.Store(small_counter, tx.Load(small_counter) + 1);
        });
        // mo: acq_rel — [harness] cross-thread counter/flag RMW.
        small_ops.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }
  // Readers verify the big array is always uniform (serial writes are atomic).
  std::atomic<int> violations{0};
  std::thread reader([&] {
    // mo: acquire — [harness] observe worker-published state.
    while (!stop.load(std::memory_order_acquire)) {
      Atomically(rt.sys(), [&](Tx& tx) {
        std::uint64_t first = tx.Load(big[0]);
        std::uint64_t mid = tx.Load(big[512]);
        std::uint64_t last = tx.Load(big[1023]);
        if (first != mid || mid != last) {
          // mo: acq_rel — [harness] cross-thread counter/flag RMW.
          violations.fetch_add(1, std::memory_order_acq_rel);
        }
      });
    }
  });
  big_writer.join();
  reader.join();
  for (auto& t : small_writers) {
    t.join();
  }
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(violations.load(std::memory_order_acquire), 0);
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(small_counter, small_ops.load(std::memory_order_acquire));
  EXPECT_EQ(big[7], 50u);
}

TEST(SimHtmTest, OverlappingWriterConflictAbortsDeterministically) {
  // A transaction that read the hot line before another writer committed to it
  // must conflict-abort at its own write. Forced by parking it mid-flight while
  // the interloper commits on a helper thread (see tests/parked_tx.h).
  Runtime rt(HtmConfig());
  std::uint64_t hot = 0;
  RunWithParkedTx(
      rt,
      [&](Tx& tx, const ParkFn& park) {
        std::uint64_t v = tx.Load(hot);
        park();
        tx.Store(hot, v + 1);
      },
      [&](Tx& tx) { tx.Store(hot, tx.Load(hot) + 10); });
  EXPECT_EQ(hot, 11u);  // 10 from the interloper, then +1 on the clean retry
  EXPECT_GE(rt.AggregateStats().Get(Counter::kHtmConflictAborts), 1u);
}

// Serial entry drains the per-thread commit flags up to the registered-tid
// bound, so a hardware commit in flight on the most recently registered
// thread — the bound's last slot — must hold the serial transaction back.
// The flag is raised through the domain's table, standing in for a thread
// parked inside CommitTx's commit window.
TEST(SimHtmTest, SerialEntryWaitsForCommitFlagAtHighestTid) {
  TmConfig cfg = HtmConfig();
  cfg.htm_max_attempts = 0;  // every transaction enters serial mode
  Runtime rt(cfg);
  std::uint64_t x = 0;
  std::binary_semaphore serial_registered{0};
  std::binary_semaphore serial_go{0};
  std::binary_semaphore flag_raised{0};
  std::binary_semaphore flag_clear{0};
  std::atomic<bool> serial_done{false};
  std::thread serial([&] {
    Atomically(rt.sys(), [&](Tx& tx) { (void)tx.Load(x); });  // registers first
    serial_registered.release();
    serial_go.acquire();
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, tx.Load(x) + 1); });
    // mo: release — [harness] publish the serial commit to the test body.
    serial_done.store(true, std::memory_order_release);
  });
  serial_registered.acquire();
  int flag_tid = -1;
  std::thread committer([&] {
    flag_tid = rt.sys().Desc().tid;  // registers last: the highest tid
    // mo: release — [harness] the semaphore below orders it before the
    // serial entrant's drain.
    rt.sys().quiesce().CommitFlag(flag_tid).store(1, std::memory_order_release);
    flag_raised.release();
    flag_clear.acquire();
    // mo: release — [harness] the drain loop observes the clear.
    rt.sys().quiesce().CommitFlag(flag_tid).store(0, std::memory_order_release);
  });
  flag_raised.acquire();
  EXPECT_EQ(flag_tid + 1, rt.sys().quiesce().bound());
  serial_go.release();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // mo: acquire — [harness] observe whether the serial commit got through.
  EXPECT_FALSE(serial_done.load(std::memory_order_acquire))
      << "serial entry did not drain the highest registered tid's flag";
  flag_clear.release();
  committer.join();
  serial.join();
  // mo: acquire — [harness] ordered by the join as well.
  EXPECT_TRUE(serial_done.load(std::memory_order_acquire));
  EXPECT_EQ(x, 1u);
}

TEST(SimHtmTest, LineGranularityMakesNeighborsConflict) {
  // Two disjoint words in one cache line are a false conflict for HTM (but not
  // for the word-granular STMs) — the source of the paper's observation that
  // TSX aborts on conflicts STM tolerates (§2.4.1).
  Runtime rt(HtmConfig());
  alignas(64) std::uint64_t line[8] = {};
  constexpr int kOps = 2000;
  std::thread t1([&] {
    for (int i = 0; i < kOps; ++i) {
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(line[0], tx.Load(line[0]) + 1); });
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < kOps; ++i) {
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(line[7], tx.Load(line[7]) + 1); });
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(line[0], kOps);
  EXPECT_EQ(line[7], kOps);
}

}  // namespace
}  // namespace tcs
