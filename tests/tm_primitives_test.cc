// Unit tests for the TM building blocks: orecs, logs, waitsets, transactional
// allocation bookkeeping, quiescence, and the small common utilities.
#include <gtest/gtest.h>

#include <cstring>
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

TEST(QuiesceTest, InactiveThreadsDoNotBlock) {
  QuiesceTable q(4);
  q.WaitForReadersBefore(100, 0);  // nobody active: returns immediately
}

TEST(QuiesceTest, ActiveOldReaderBlocksUntilDone) {
  QuiesceTable q(2);
  q.SetActive(1, 5);
  std::binary_semaphore started{0};
  std::thread waiter([&] {
    started.release();
    q.WaitForReadersBefore(10, 0);
  });
  started.acquire();
  q.SetInactive(1);
  waiter.join();
}

TEST(QuiesceTest, NewerReaderDoesNotBlock) {
  QuiesceTable q(2);
  q.SetActive(1, 50);
  q.WaitForReadersBefore(10, 0);  // 50 >= 10: no wait
  q.SetInactive(1);
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
