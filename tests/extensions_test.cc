// Tests for the two optional extensions discussed in the paper:
//  * eager-STM timestamp extension (Appendix A's "overly conservative" abort and
//    its standard fix), and
//  * the HTM pred-table fast path (§2.2.6): WaitPred descheduling via the 8-bit
//    explicit-abort code, with no software-mode re-execution.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <semaphore>
#include <thread>

#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/tm/sim_htm.h"

namespace tcs {
namespace {

void AwaitCounterValue(Runtime& rt, Counter c, std::uint64_t target) {
  for (int i = 0; i < 100000; ++i) {
    if (rt.AggregateStats().Get(c) >= target) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  FAIL() << "counter " << CounterName(c) << " never reached " << target;
}

TmConfig EagerExtConfig() {
  TmConfig cfg;
  cfg.backend = Backend::kEagerStm;
  cfg.timestamp_extension = true;
  // The test parks a transaction mid-flight on purpose; commit-time quiescence
  // would deadlock against that, so it is off here.
  cfg.privatization_safety = false;
  cfg.max_threads = 8;
  return cfg;
}

TEST(TimestampExtensionTest, SalvagesReadAfterUnrelatedCommit) {
  Runtime rt(EagerExtConfig());
  std::uint64_t x = 1;
  std::uint64_t y = 2;
  std::binary_semaphore reader_paused{0};
  std::binary_semaphore writer_done{0};

  std::thread reader([&] {
    bool paused = false;
    auto pair = Atomically(rt.sys(), [&](Tx& tx) {
      std::uint64_t a = tx.Load(x);
      if (!paused) {
        paused = true;
        reader_paused.release();
        writer_done.acquire();  // let a writer commit mid-transaction
      }
      // y's orec version is now greater than this transaction's start time; the
      // extension must revalidate {x} and accept instead of aborting.
      std::uint64_t b = tx.Load(y);
      return std::make_pair(a, b);
    });
    EXPECT_EQ(pair.first, 1u);
    EXPECT_EQ(pair.second, 20u);
  });
  reader_paused.acquire();
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(y, std::uint64_t{20}); });
  writer_done.release();
  reader.join();

  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kTimestampExtensions), 1u);
  EXPECT_EQ(s.Get(Counter::kAborts), 0u);
}

TEST(TimestampExtensionTest, ConflictingCommitStillAborts) {
  Runtime rt(EagerExtConfig());
  std::uint64_t x = 1;
  std::uint64_t y = 2;
  std::binary_semaphore reader_paused{0};
  std::binary_semaphore writer_done{0};

  std::thread reader([&] {
    bool paused = false;
    Atomically(rt.sys(), [&](Tx& tx) {
      std::uint64_t a = tx.Load(x);
      (void)a;
      if (!paused) {
        paused = true;
        reader_paused.release();
        writer_done.acquire();
        // The writer changed x itself: extension must fail, aborting here.
        std::uint64_t b = tx.Load(y);
        (void)b;
        ADD_FAILURE() << "read of y should have aborted the first attempt";
      }
      EXPECT_EQ(tx.Load(x), 10u);  // second attempt sees the new value
    });
  });
  reader_paused.acquire();
  Atomically(rt.sys(), [&](Tx& tx) {
    tx.Store(x, std::uint64_t{10});
    tx.Store(y, std::uint64_t{20});
  });
  writer_done.release();
  reader.join();

  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kAborts), 1u);
}

TEST(TimestampExtensionTest, DisabledByDefaultAborts) {
  TmConfig cfg = EagerExtConfig();
  cfg.timestamp_extension = false;
  Runtime rt(cfg);
  std::uint64_t x = 1;
  std::uint64_t y = 2;
  std::binary_semaphore reader_paused{0};
  std::binary_semaphore writer_done{0};

  std::thread reader([&] {
    bool paused = false;
    Atomically(rt.sys(), [&](Tx& tx) {
      (void)tx.Load(x);
      if (!paused) {
        paused = true;
        reader_paused.release();
        writer_done.acquire();
      }
      (void)tx.Load(y);
    });
  });
  reader_paused.acquire();
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(y, std::uint64_t{20}); });
  writer_done.release();
  reader.join();

  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kAborts), 1u);
  EXPECT_EQ(s.Get(Counter::kTimestampExtensions), 0u);
}

// --- pred-table fast path ---

struct Cell {
  std::uint64_t value = 0;
};

bool CellReadyPred(TmSystem& sys, const WaitArgs& args) {
  const auto* cell = reinterpret_cast<const Cell*>(args.v[0]);
  return sys.Read(reinterpret_cast<const TmWord*>(&cell->value)) != 0;
}

TmConfig PredTableConfig(bool enabled) {
  TmConfig cfg;
  cfg.backend = Backend::kSimHtm;
  cfg.htm_pred_table = enabled;
  cfg.max_threads = 8;
  return cfg;
}

TEST(HtmPredTableTest, RegisteredPredDeschedulesWithoutSoftwareMode) {
  Runtime rt(PredTableConfig(true));
  auto& htm = static_cast<SimHtm&>(rt.sys());
  Cell cell;
  WaitArgs args;
  args.v[0] = reinterpret_cast<TmWord>(&cell);
  args.n = 1;
  std::uint8_t code = htm.RegisterPred(&CellReadyPred, args);
  ASSERT_GT(code, 0);
  // Registering the same combination again returns the same code.
  EXPECT_EQ(htm.RegisterPred(&CellReadyPred, args), code);

  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(cell.value) == 0) {
        tx.WaitPred(&CellReadyPred, args);
      }
      EXPECT_NE(tx.Load(cell.value), 0u);
    });
  });
  AwaitCounterValue(rt, Counter::kSleeps, 1);
  TxStats s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kHtmPredTableFastPath), 1u);
  EXPECT_EQ(s.Get(Counter::kHtmFallbacks), 0u)
      << "fast path must not re-execute in serial software mode";
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell.value, std::uint64_t{7}); });
  waiter.join();
}

TEST(HtmPredTableTest, UnregisteredComboFallsBackToSoftwareMode) {
  Runtime rt(PredTableConfig(true));
  Cell cell;
  WaitArgs args;
  args.v[0] = reinterpret_cast<TmWord>(&cell);
  args.n = 1;
  // Not registered: WaitPred must take the abort-and-reexecute-serially path.
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(cell.value) == 0) {
        tx.WaitPred(&CellReadyPred, args);
      }
    });
  });
  AwaitCounterValue(rt, Counter::kSleeps, 1);
  TxStats s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kHtmPredTableFastPath), 0u);
  EXPECT_GE(s.Get(Counter::kHtmFallbacks), 1u);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell.value, std::uint64_t{7}); });
  waiter.join();
}

TEST(HtmPredTableTest, DisabledConfigIgnoresRegistrations) {
  Runtime rt(PredTableConfig(false));
  auto& htm = static_cast<SimHtm&>(rt.sys());
  Cell cell;
  WaitArgs args;
  args.v[0] = reinterpret_cast<TmWord>(&cell);
  args.n = 1;
  htm.RegisterPred(&CellReadyPred, args);
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(cell.value) == 0) {
        tx.WaitPred(&CellReadyPred, args);
      }
    });
  });
  AwaitCounterValue(rt, Counter::kSleeps, 1);
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kHtmPredTableFastPath), 0u);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell.value, std::uint64_t{7}); });
  waiter.join();
}

TEST(HtmPredTableTest, TableFullReturnsZero) {
  Runtime rt(PredTableConfig(true));
  auto& htm = static_cast<SimHtm&>(rt.sys());
  Cell cell;
  std::uint8_t last = 0;
  for (int i = 0; i < 300; ++i) {
    WaitArgs args;
    args.v[0] = reinterpret_cast<TmWord>(&cell);
    args.v[1] = static_cast<TmWord>(i);
    args.n = 2;
    last = htm.RegisterPred(&CellReadyPred, args);
  }
  EXPECT_EQ(last, 0) << "a full table must reject new combinations";
}

}  // namespace
}  // namespace tcs
