// Simulated-HTM specifics: capacity limits, the serial-irrevocable fallback and
// its progress rule, cache-line conflict granularity, and serial/hardware
// interaction under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <semaphore>
#include <thread>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/tm/sim_htm.h"

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
  // must conflict-abort at its own write. Forced with a mid-transaction
  // handshake (quiescence off: the paused transaction would otherwise deadlock
  // the writer's privatization fence).
  TmConfig cfg = HtmConfig();
  cfg.privatization_safety = false;
  Runtime rt(cfg);
  std::uint64_t hot = 0;
  std::binary_semaphore reader_paused{0};
  std::binary_semaphore writer_done{0};
  std::thread t1([&] {
    bool paused = false;
    Atomically(rt.sys(), [&](Tx& tx) {
      std::uint64_t v = tx.Load(hot);
      if (!paused) {
        paused = true;
        reader_paused.release();
        writer_done.acquire();
      }
      tx.Store(hot, v + 1);
    });
  });
  reader_paused.acquire();
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(hot, tx.Load(hot) + 10); });
  writer_done.release();
  t1.join();
  EXPECT_EQ(hot, 11u);  // 10 from the interloper, then +1 on the clean retry
  EXPECT_GE(rt.AggregateStats().Get(Counter::kHtmConflictAborts), 1u);
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
