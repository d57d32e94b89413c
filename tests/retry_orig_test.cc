// Tests for the Retry-Orig waiting list (Algorithm 1): validation and
// intersection, an empty read set, and a registration racing a commit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/random.h"
#include "src/condsync/retry_orig.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"

// mo-edge: [harness] (minimal: release/acquire) — test/bench harness
// coordination: flags and counters published by worker threads and
// observed by the test body or sibling threads (often additionally
// ordered by thread join). acquire/release is a uniform upper bound
// chosen over per-site minimality; none of these sites needs seq_cst
// totality.

namespace tcs {
namespace {

// Polls until `d` has slept `n` times, so its entry is published as sleeping.
void AwaitSleeps(const TxDesc& d, std::uint64_t n) {
  for (int i = 0; i < 100000 && d.stats.Get(Counter::kSleeps) < n; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_EQ(d.stats.Get(Counter::kSleeps), n);
}

TEST(RetryOrigRegistryTest, ValidationFailureSkipsSleep) {
  ParkingLot lot;
  VersionClock clock;
  RetryOrigRegistry reg(4, lot, clock);
  TxDesc d(0, 1);
  Orec o;
  // mo: relaxed — pre-concurrency test setup; no other thread runs yet.
  o.word.store(Orec::MakeVersion(10), std::memory_order_relaxed);
  // The orec's version (10) is newer than the transaction's start (5): something
  // committed since the snapshot, so the thread must not sleep.
  reg.WaitForOverlap(d, {&o}, /*start=*/5, {});
  EXPECT_EQ(d.stats.Get(Counter::kSleeps), 0u);
}

TEST(RetryOrigRegistryTest, OwnReleasedOrecDoesNotBlockSleep) {
  ParkingLot lot;
  VersionClock clock;
  RetryOrigRegistry reg(4, lot, clock);
  Orec o;
  // The transaction read AND wrote this orec; its own rollback released it at
  // version 11 (prev 10 + 1). That must validate as "unchanged".
  // mo: relaxed — pre-concurrency test setup; the waker thread is created
  // afterwards and thread creation orders the store before it.
  o.word.store(Orec::MakeVersion(11), std::memory_order_relaxed);
  std::vector<RetryOrigRegistry::ReleasedOrec> released = {
      {&o, Orec::MakeVersion(11)}};
  TxDesc d(0, 1);
  std::thread waker([&] {
    AwaitSleeps(d, 1);
    ASSERT_TRUE(reg.HasWaiters());
    reg.OnWriterCommit({&o});
  });
  reg.WaitForOverlap(d, {&o}, /*start=*/5, released);
  waker.join();
  EXPECT_EQ(d.stats.Get(Counter::kSleeps), 1u);
}

TEST(RetryOrigRegistryTest, NonOverlappingCommitDoesNotWake) {
  ParkingLot lot;
  VersionClock clock;
  RetryOrigRegistry reg(4, lot, clock);
  Orec read_orec;
  Orec other_orec;
  // mo: relaxed — pre-concurrency test setup; no other thread runs yet.
  read_orec.word.store(Orec::MakeVersion(1), std::memory_order_relaxed);
  TxDesc d(0, 1);
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    reg.WaitForOverlap(d, {&read_orec}, /*start=*/5, {});
    // mo: release — [harness] publish state to other harness threads.
    woke.store(true, std::memory_order_release);
  });
  AwaitSleeps(d, 1);
  // A commit touching a different orec: the intersection is empty, no wake.
  reg.OnWriterCommit({&other_orec});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_FALSE(woke.load(std::memory_order_acquire));
  reg.OnWriterCommit({&read_orec});
  sleeper.join();
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
}

// Waits up to `limit` for a worker to set `done`; returns whether it did.
bool AwaitDone(const std::atomic<bool>& done, std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  // mo: acquire — [harness] observe worker-published state.
  while (!done.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

// Retry-Orig runs only on the STM backends (§2.1).
class RetryOrigRaceTest : public ::testing::TestWithParam<Backend> {};

// Neither STM records an orec when a transaction reads its own write, so a
// waiter that read nothing else publishes an empty read set. No write set can
// intersect it; any writer commit must post it instead.
TEST_P(RetryOrigRaceTest, EmptyReadSetWakesOnAnyCommit) {
  Runtime rt({.backend = GetParam()});
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::atomic<int> attempts{0};
  std::atomic<bool> done{false};
  std::atomic<int> waiter_tid{-1};
  std::thread waiter([&] {
    // mo: release — [harness] publish state to other harness threads.
    waiter_tid.store(rt.sys().Desc().tid, std::memory_order_release);
    Atomically(rt.sys(), [&](Tx& tx) {
      tx.Store(x, std::uint64_t{1});
      // mo: acq_rel — [harness] cross-thread counter/flag RMW.
      if (attempts.fetch_add(1, std::memory_order_acq_rel) == 0) {
        tx.RetryOrig();
      }
    });
    // mo: release — [harness] publish state to other harness threads.
    done.store(true, std::memory_order_release);
  });
  // mo: acquire — [harness] observe worker-published state.
  while (rt.AggregateStats().Get(Counter::kSleeps) < 1 &&
         !done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(y, std::uint64_t{1}); });
  const bool finished = AwaitDone(done, std::chrono::seconds(5));
  if (!finished) {
    // mo: acquire — [harness] observe worker-published state.
    rt.sys().PostParked(waiter_tid.load(std::memory_order_acquire));
  }
  waiter.join();
  EXPECT_TRUE(finished)
      << "a commit to an unrelated word left the empty-read-set waiter asleep";
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kSleeps), 1u);
}

// A waiter and a writer start together from a latch, the writer after a random
// skew, so the commit lands anywhere in the waiter's registration. The waiter
// must finish: a commit that serializes after its registration posts it, and
// one before it fails its validation.
TEST_P(RetryOrigRaceTest, RegistrationRacingACommitIsNeverLost) {
#if defined(__SANITIZE_THREAD__)  // GCC's TSan macro: a few hundred rounds
  constexpr std::uint64_t kRounds = 300;
#else
  constexpr std::uint64_t kRounds = 2000;
#endif
  Runtime rt({.backend = GetParam()});
  std::uint64_t cell = 0;
  SplitMix64 rng(0x5EEDULL + static_cast<std::uint64_t>(GetParam()));
  for (std::uint64_t r = 1; r <= kRounds; ++r) {
    const std::uint64_t skew = rng.NextBounded(65);
    // Both sides spin on the latch: a futex wait would hand whichever thread
    // arrives second a head start of a whole wakeup.
    std::latch go(2);
    auto start_together = [&] {
      rt.sys().Desc();
      go.count_down();
      while (!go.try_wait()) {
        CpuRelax();
      }
    };
    std::atomic<bool> done{false};
    std::thread waiter([&] {
      start_together();
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(cell) < r) {
          tx.RetryOrig();
        }
      });
      // mo: release — [harness] publish state to other harness threads.
      done.store(true, std::memory_order_release);
    });
    std::thread writer([&] {
      start_together();
      for (std::uint64_t i = 0; i < skew; ++i) {
        CpuRelax();
      }
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, r); });
    });
    writer.join();
    const bool lost = !AwaitDone(done, std::chrono::seconds(2));
    if (lost) {
      // A second commit to the cell posts any sleeper on its orec.
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, r); });
    }
    waiter.join();
    ASSERT_FALSE(lost) << "round " << r << " (skew " << skew
                       << "): the writer's commit never woke the waiter";
  }
}

INSTANTIATE_TEST_SUITE_P(StmBackends, RetryOrigRaceTest,
                         ::testing::Values(Backend::kEagerStm, Backend::kLazyStm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kEagerStm ? "EagerStm"
                                                                   : "LazyStm";
                         });

}  // namespace
}  // namespace tcs
