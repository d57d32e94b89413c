// Unit tests for the Retry-Orig waiting list and edge cases of the deschedule
// machinery (slot reuse, unrelated transactions, stale presence bits). The
// wake index's own presence and slot tests live in wake_index_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

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

// A stale presence bit (waiter between wake and Remove) must only cost the
// writer a rejected transactional check, never a wrong wake.
TEST(DescheduleEdgeTest, RepeatedSleepWakeOnOneSlot) {
  Runtime rt({.backend = Backend::kEagerStm});
  std::uint64_t round = 0;
  constexpr std::uint64_t kRounds = 200;
  std::thread waiter([&] {
    for (std::uint64_t r = 1; r <= kRounds; ++r) {
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(round) < r) {
          tx.Retry();
        }
      });
    }
  });
  for (std::uint64_t r = 1; r <= kRounds; ++r) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(round, r); });
  }
  waiter.join();
  // The slot was reused kRounds times by the same thread without leaking state.
  EXPECT_LE(rt.AggregateStats().Get(Counter::kSleeps), kRounds);
}

TEST(DescheduleEdgeTest, ReadOnlyCommitsNeverScanWaiters) {
  Runtime rt({.backend = Backend::kEagerStm});
  std::uint64_t flag = 0;
  std::uint64_t data = 7;
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.Retry();
      }
    });
  });
  while (rt.AggregateStats().Get(Counter::kSleeps) < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // Read-only transactions commit without wakeWaiters (only writers can
  // establish a precondition).
  for (int i = 0; i < 50; ++i) {
    std::uint64_t v = Atomically(rt.sys(), [&](Tx& tx) { return tx.Load(data); });
    EXPECT_EQ(v, 7u);
  }
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kWakeChecks), 0u);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
}

TEST(RetryOrigRegistryTest, ValidationFailureSkipsSleep) {
  RetryOrigRegistry reg(4);
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
  RetryOrigRegistry reg(4);
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
    // Wake once the entry is registered.
    for (int i = 0; i < 100000; ++i) {
      if (reg.HasWaiters()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ASSERT_TRUE(reg.HasWaiters());
    reg.OnWriterCommit({&o});
  });
  reg.WaitForOverlap(d, {&o}, /*start=*/5, released);
  waker.join();
  EXPECT_EQ(d.stats.Get(Counter::kSleeps), 1u);
}

// Pins the lost-wakeup repair for the pre-fence snapshot race: a writer whose
// post-fence HasWaiters peek finds waiters but whose snapshot heuristic
// skipped copying the write set has no orecs to intersect, so Commit() calls
// WakeAllSleepers — every sleeper must be posted, whatever it reads.
TEST(RetryOrigRegistryTest, WakeAllSleepersWakesEverySleeperConservatively) {
  RetryOrigRegistry reg(4);
  Orec a;
  Orec b;
  // mo: relaxed — pre-concurrency test setup; no other thread runs yet.
  a.word.store(Orec::MakeVersion(1), std::memory_order_relaxed);
  // mo: relaxed — pre-concurrency test setup; no other thread runs yet.
  b.word.store(Orec::MakeVersion(1), std::memory_order_relaxed);
  TxDesc d0(0, 2);
  TxDesc d1(1, 2);
  std::thread s0([&] { reg.WaitForOverlap(d0, {&a}, /*start=*/5, {}); });
  std::thread s1([&] { reg.WaitForOverlap(d1, {&b}, /*start=*/5, {}); });
  for (int i = 0; i < 100000; ++i) {
    if (d0.stats.Get(Counter::kSleeps) == 1 &&
        d1.stats.Get(Counter::kSleeps) == 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_TRUE(reg.HasWaiters());
  reg.WakeAllSleepers();
  s0.join();
  s1.join();
  EXPECT_FALSE(reg.HasWaiters());
  // Idempotent on an empty list.
  reg.WakeAllSleepers();
}

TEST(RetryOrigRegistryTest, NonOverlappingCommitDoesNotWake) {
  RetryOrigRegistry reg(4);
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
  for (int i = 0; i < 100000 && !reg.HasWaiters(); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
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

}  // namespace
}  // namespace tcs
