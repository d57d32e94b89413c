// Unit tests for the TM building blocks: orecs, logs, waitsets, transactional
// allocation bookkeeping, quiescence, and the small common utilities.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <semaphore>
#include <thread>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/random.h"
#include "src/common/spin_lock.h"
#include "src/tm/orec_table.h"
#include "src/tm/quiesce.h"
#include "src/tm/redo_log.h"
#include "src/tm/tx_malloc.h"
#include "src/tm/undo_log.h"
#include "src/tm/wait_set.h"

// mo-edge: [harness] (minimal: release/acquire) — test harness coordination:
// flags published by helper threads and observed by the test body (often
// additionally ordered by thread join or a semaphore).

namespace tcs {
namespace {

TEST(OrecTest, VersionPackingRoundTrips) {
  for (std::uint64_t v : {0ULL, 1ULL, 42ULL, (1ULL << 40)}) {
    std::uint64_t w = Orec::MakeVersion(v);
    EXPECT_FALSE(Orec::IsLocked(w));
    EXPECT_EQ(Orec::Version(w), v);
  }
}

TEST(OrecTest, LockPackingRoundTrips) {
  for (int tid : {0, 1, 17, 255}) {
    std::uint64_t w = Orec::MakeLocked(tid);
    EXPECT_TRUE(Orec::IsLocked(w));
    EXPECT_EQ(Orec::Owner(w), tid);
  }
}

TEST(OrecTableTest, SameAddressSameOrec) {
  OrecTable t(10, 3);
  int x = 0;
  EXPECT_EQ(&t.For(&x), &t.For(&x));
}

TEST(OrecTableTest, CacheLineGranularityMapsLineTogether) {
  OrecTable t(10, 6);
  alignas(64) std::uint64_t line[8] = {};
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(&t.For(&line[0]), &t.For(&line[i])) << i;
  }
}

TEST(OrecTableTest, WordGranularitySpreadsNeighbors) {
  OrecTable t(12, 3);
  std::uint64_t words[64] = {};
  int distinct = 0;
  for (int i = 1; i < 64; ++i) {
    if (&t.For(&words[i]) != &t.For(&words[0])) {
      distinct++;
    }
  }
  EXPECT_GT(distinct, 32);
}

TEST(UndoLogTest, UndoRestoresInReverseOrder) {
  UndoLog log;
  TmWord a = 1;
  log.Append(&a, 1);  // first write: old value 1
  a = 2;
  log.Append(&a, 2);  // second write: old value 2
  a = 3;
  log.UndoAll();
  EXPECT_EQ(a, 1u);
}

TEST(UndoLogTest, FindOriginalReturnsFirstLoggedValue) {
  UndoLog log;
  TmWord a = 0;
  log.Append(&a, 7);
  log.Append(&a, 8);
  TmWord out = 0;
  ASSERT_TRUE(log.FindOriginal(&a, &out));
  EXPECT_EQ(out, 7u);
  TmWord b = 0;
  EXPECT_FALSE(log.FindOriginal(&b, &out));
}

TEST(RedoLogTest, PutThenLookup) {
  RedoLog log;
  TmWord a = 0;
  log.Put(&a, 42);
  TmWord out = 0;
  ASSERT_TRUE(log.Lookup(&a, &out));
  EXPECT_EQ(out, 42u);
}

TEST(RedoLogTest, PutOverwritesInPlace) {
  RedoLog log;
  TmWord a = 0;
  log.Put(&a, 1);
  log.Put(&a, 2);
  EXPECT_EQ(log.Size(), 1u);
  TmWord out = 0;
  ASSERT_TRUE(log.Lookup(&a, &out));
  EXPECT_EQ(out, 2u);
}

TEST(RedoLogTest, WriteBackPublishesAll) {
  RedoLog log;
  std::vector<TmWord> data(100, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    log.Put(&data[i], i + 1);
  }
  log.WriteBack();
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], i + 1);
  }
}

TEST(RedoLogTest, GrowsPastInitialIndexSize) {
  RedoLog log;
  std::vector<TmWord> data(5000, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    log.Put(&data[i], i);
  }
  EXPECT_EQ(log.Size(), data.size());
  for (std::size_t i = 0; i < data.size(); i += 97) {
    TmWord out = 1;
    ASSERT_TRUE(log.Lookup(&data[i], &out));
    EXPECT_EQ(out, i);
  }
}

TEST(RedoLogTest, ClearEmptiesAndReuses) {
  RedoLog log;
  TmWord a = 0;
  log.Put(&a, 9);
  log.Clear();
  EXPECT_TRUE(log.Empty());
  TmWord out;
  EXPECT_FALSE(log.Lookup(&a, &out));
  log.Put(&a, 10);
  ASSERT_TRUE(log.Lookup(&a, &out));
  EXPECT_EQ(out, 10u);
}

TEST(WaitSetTest, AppendAndContains) {
  WaitSet ws;
  TmWord a = 0;
  TmWord b = 0;
  ws.Append(&a, 5);
  EXPECT_TRUE(ws.ContainsAddr(&a));
  EXPECT_FALSE(ws.ContainsAddr(&b));
  EXPECT_EQ(ws.Size(), 1u);
  ws.Clear();
  EXPECT_TRUE(ws.Empty());
}

TEST(TxMallocTest, CommitPerformsDeferredFrees) {
  TxMallocLog mem;
  void* p = std::malloc(8);
  mem.Free(p);
  EXPECT_EQ(mem.FreeCount(), 1u);
  mem.OnCommit();  // must free p (checked by ASAN builds; here: no crash)
  EXPECT_EQ(mem.FreeCount(), 0u);
}

TEST(TxMallocTest, AbortUndoesAllocations) {
  TxMallocLog mem;
  void* p = mem.Alloc(16);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(mem.AllocCount(), 1u);
  mem.OnAbort();  // frees p
  EXPECT_EQ(mem.AllocCount(), 0u);
}

TEST(TxMallocTest, DescheduleKeepsAllocationsUntilReclaim) {
  TxMallocLog mem;
  void* p = mem.Alloc(16);
  mem.DeferForDeschedule();
  EXPECT_EQ(mem.AllocCount(), 0u);
  EXPECT_EQ(mem.DeferredCount(), 1u);
  // The memory must still be usable while deferred (a waitset may point into it).
  std::memset(p, 0xAB, 16);
  mem.ReclaimDeferred();
  EXPECT_EQ(mem.DeferredCount(), 0u);
}

// Runs `wait` on a helper thread and checks it is still blocked after a
// grace period, then runs `release` and checks the wait returns. A scan that
// skipped the slot it should wait for fails the first expectation.
void ExpectBlocksUntilReleased(const std::function<void()>& wait,
                               const std::function<void()>& release) {
  std::atomic<bool> returned{false};
  std::binary_semaphore started{0};
  std::thread waiter([&] {
    started.release();
    wait();
    // mo: release — [harness] publish the wait's return to the test body.
    returned.store(true, std::memory_order_release);
  });
  started.acquire();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // mo: acquire — [harness] observe whether the waiter got past its wait.
  EXPECT_FALSE(returned.load(std::memory_order_acquire))
      << "the walk returned while the slot it must wait for was still set";
  release();
  waiter.join();
  // mo: acquire — [harness] ordered by the join as well.
  EXPECT_TRUE(returned.load(std::memory_order_acquire));
}

TEST(QuiesceTest, InactiveThreadsDoNotBlock) {
  QuiesceTable q(4);
  for (int tid = 0; tid < 4; ++tid) {
    q.Register(tid);
  }
  q.WaitForReadersBefore(100, 0);  // nobody active: returns immediately
  q.WaitForCommitFlagsClear();     // no flag raised: returns immediately
}

TEST(QuiesceTest, ActiveOldReaderBlocksUntilDone) {
  QuiesceTable q(2);
  q.Register(0);
  q.Register(1);
  q.SetActive(1, 5);
  ExpectBlocksUntilReleased([&] { q.WaitForReadersBefore(10, 0); },
                            [&] { q.SetInactive(1); });
}

TEST(QuiesceTest, NewerReaderDoesNotBlock) {
  QuiesceTable q(2);
  q.Register(0);
  q.Register(1);
  q.SetActive(1, 50);
  q.WaitForReadersBefore(10, 0);  // 50 >= 10: no wait
  q.SetInactive(1);
}

TEST(QuiesceTest, BoundTracksTheHighestRegisteredTid) {
  QuiesceTable q(1024);
  EXPECT_EQ(q.bound(), 0);
  q.Register(0);
  q.Register(3);  // registration may skip ahead; the bound covers the gap
  EXPECT_EQ(q.bound(), 4);
  q.Register(1);  // a lower tid never lowers it
  EXPECT_EQ(q.bound(), 4);
}

// The scan's last slot is the bound's last tid: an off-by-one there skips
// exactly the most recently registered thread.
TEST(QuiesceTest, ReaderAtHighestRegisteredTidBlocks) {
  QuiesceTable q(16);
  for (int tid = 0; tid < 6; ++tid) {
    q.Register(tid);
  }
  q.SetActive(5, 5);
  ExpectBlocksUntilReleased([&] { q.WaitForReadersBefore(10, 0); },
                            [&] { q.SetInactive(5); });
}

TEST(QuiesceTest, ReaderInSecondSegmentBlocks) {
  QuiesceTable q(1024);
  for (int tid = 0; tid <= 300; ++tid) {
    q.Register(tid);
  }
  q.SetActive(300, 5);  // segment 1; segment 0's slots stay untouched
  ExpectBlocksUntilReleased([&] { q.WaitForReadersBefore(10, 0); },
                            [&] { q.SetInactive(300); });
}

// A recycled tid is handed out again without a new Register: it already sits
// below the bound, so its next owner's transactions are waited on too.
TEST(QuiesceTest, RecycledTidBlocks) {
  QuiesceTable q(16);
  for (int tid = 0; tid < 3; ++tid) {
    q.Register(tid);
  }
  q.SetActive(2, 1);  // previous owner of tid 2
  q.SetInactive(2);
  q.SetActive(2, 5);  // next owner, no re-registration
  ExpectBlocksUntilReleased([&] { q.WaitForReadersBefore(10, 0); },
                            [&] { q.SetInactive(2); });
}

// The contract the bound encodes: a slot above it belongs to no registered
// thread and is not waited on. (Inside a TM domain every tid registers before
// its first SetActive; the protocol checker reports a slot published above
// the bound — see protocol_checker_test.)
TEST(QuiesceTest, TidAboveBoundIsNotWaitedOn) {
  QuiesceTable q(16);
  q.Register(0);
  q.Register(1);
  q.SetActive(2, 5);
  q.WaitForReadersBefore(10, 0);  // returns at once: tid 2 is past the bound
  // mo: relaxed — [harness] single-threaded: nothing else reads the flag.
  q.CommitFlag(3).store(1, std::memory_order_relaxed);
  q.WaitForCommitFlagsClear();
  q.SetInactive(2);
}

TEST(QuiesceTest, CommitFlagDrainWaitsAtHighestTidAndSecondSegment) {
  QuiesceTable q(1024);
  for (int tid = 0; tid <= 300; ++tid) {
    q.Register(tid);
  }
  for (int tid : {300, 255, 0}) {
    // mo: release — [harness] raise the flag before the drain thread starts.
    q.CommitFlag(tid).store(1, std::memory_order_release);
    ExpectBlocksUntilReleased(
        [&] { q.WaitForCommitFlagsClear(); },
        // mo: release — [harness] the drain's load observes the clear.
        [&] { q.CommitFlag(tid).store(0, std::memory_order_release); });
  }
}

TEST(SpinLockTest, MutualExclusionUnderContention) {
  SpinLock lock;
  int counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        SpinLockGuard g(lock);
        counter++;
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  EXPECT_EQ(counter, 40000);
}

TEST(RandomTest, DeterministicForSameSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, BoundedStaysInRange) {
  SplitMix64 r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextBounded(17), 17u);
  }
}

TEST(BackoffTest, PauseTerminates) {
  Backoff b(123);
  for (int i = 0; i < 20; ++i) {
    b.Pause();
  }
  b.Reset();
  b.Pause();
}

}  // namespace
}  // namespace tcs
