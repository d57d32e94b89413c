// Facade semantics of Atomically()/Tx: return-value plumbing, flat nesting
// through helper functions, multiple TM domains per thread, domain lifecycle,
// and the type constraints of Load/Store.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/transaction.h"

namespace tcs {
namespace {

TEST(AtomicallyTest, ReturnsVoidAndValues) {
  Runtime rt((TmConfig()));
  std::uint64_t x = 5;
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{6}); });
  int i = Atomically(rt.sys(), [&](Tx&) { return 42; });
  EXPECT_EQ(i, 42);
  auto pair = Atomically(rt.sys(), [&](Tx& tx) {
    return std::make_pair(tx.Load(x), std::string("ok"));
  });
  EXPECT_EQ(pair.first, 6u);
  EXPECT_EQ(pair.second, "ok");
}

TEST(AtomicallyTest, MoveOnlyReturnValue) {
  Runtime rt((TmConfig()));
  auto p = Atomically(rt.sys(), [&](Tx&) { return std::make_unique<int>(7); });
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 7);
}

std::uint64_t HelperIncrement(TmSystem& sys, std::uint64_t& var) {
  // Library code: atomic on its own, flat-nested when called from a transaction.
  return Atomically(sys, [&](Tx& tx) {
    std::uint64_t v = tx.Load(var) + 1;
    tx.Store(var, v);
    return v;
  });
}

TEST(AtomicallyTest, LibraryHelperComposes) {
  Runtime rt((TmConfig()));
  std::uint64_t x = 0;
  // Standalone call.
  EXPECT_EQ(HelperIncrement(rt.sys(), x), 1u);
  // Composed: two helper calls and a consistency check, all one transaction.
  Atomically(rt.sys(), [&](Tx& tx) {
    std::uint64_t a = HelperIncrement(rt.sys(), x);
    std::uint64_t b = HelperIncrement(rt.sys(), x);
    EXPECT_EQ(b, a + 1);
    EXPECT_EQ(tx.Load(x), b);
  });
  EXPECT_EQ(x, 3u);
}

TEST(AtomicallyTest, InTxReflectsState) {
  Runtime rt((TmConfig()));
  EXPECT_FALSE(rt.sys().InTx());
  Atomically(rt.sys(), [&](Tx& tx) {
    (void)tx;
    EXPECT_TRUE(rt.sys().InTx());
  });
  EXPECT_FALSE(rt.sys().InTx());
}

TEST(AtomicallyTest, TwoDomainsOnOneThread) {
  Runtime a({.backend = Backend::kEagerStm});
  Runtime b({.backend = Backend::kLazyStm});
  std::uint64_t xa = 0;
  std::uint64_t xb = 0;
  for (int i = 0; i < 100; ++i) {
    Atomically(a.sys(), [&](Tx& tx) { tx.Store(xa, tx.Load(xa) + 1); });
    Atomically(b.sys(), [&](Tx& tx) { tx.Store(xb, tx.Load(xb) + 2); });
  }
  EXPECT_EQ(xa, 100u);
  EXPECT_EQ(xb, 200u);
}

TEST(AtomicallyTest, ManyShortLivedDomains) {
  // Domain create/destroy churn: descriptor caches are uid-guarded, so a new
  // domain at a recycled address must not see stale thread state.
  for (int i = 0; i < 50; ++i) {
    auto rt = std::make_unique<Runtime>(TmConfig{});
    std::uint64_t x = 0;
    Atomically(rt->sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t(i)); });
    EXPECT_EQ(x, static_cast<std::uint64_t>(i));
  }
}

TEST(AtomicallyTest, DescriptorCacheHoldsOnlyLiveDomains) {
  // A thread's descriptor cache drops the entries of destroyed domains, so it
  // stays small, and it never drops a live one: that would register the
  // thread again under a new tid, and leak the old one.
  Runtime a({.backend = Backend::kEagerStm});
  Runtime b({.backend = Backend::kLazyStm});
  std::uint64_t xa = 0;
  std::uint64_t xb = 0;
  Atomically(a.sys(), [&](Tx& tx) { tx.Store(xa, tx.Load(xa) + 1); });
  Atomically(b.sys(), [&](Tx& tx) { tx.Store(xb, tx.Load(xb) + 1); });
  const int tid_a = a.sys().Desc().tid;
  const int tid_b = b.sys().Desc().tid;
  const TmConfig small{.orec_table_log2 = 10, .max_threads = 8};
  for (int i = 0; i < 1000; ++i) {
    {
      Runtime rt(small);
      std::uint64_t x = 0;
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{1}); });
      ASSERT_LE(TmSystem::CachedDescCount(), 3u) << "domain " << i;
    }
    if (i % 100 == 99) {
      Atomically(a.sys(), [&](Tx& tx) { tx.Store(xa, tx.Load(xa) + 1); });
      Atomically(b.sys(), [&](Tx& tx) { tx.Store(xb, tx.Load(xb) + 1); });
      ASSERT_EQ(a.sys().Desc().tid, tid_a) << "domain " << i;
      ASSERT_EQ(b.sys().Desc().tid, tid_b) << "domain " << i;
      ASSERT_EQ(a.sys().quiesce().bound(), 1) << "domain " << i;
      ASSERT_EQ(b.sys().quiesce().bound(), 1) << "domain " << i;
    }
  }
  EXPECT_EQ(xa, 11u);
  EXPECT_EQ(xb, 11u);

  // Thread exit still returns the live domain's tid, however many dead
  // domains the thread also used.
  int worker_tid = -1;
  std::thread([&] {
    Atomically(a.sys(), [&](Tx& tx) { tx.Store(xa, tx.Load(xa) + 1); });
    worker_tid = a.sys().Desc().tid;
    for (int i = 0; i < 50; ++i) {
      Runtime rt(small);
      std::uint64_t x = 0;
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{1}); });
    }
    EXPECT_EQ(a.sys().Desc().tid, worker_tid);
  }).join();
  int next_tid = -1;
  std::thread([&] {
    Atomically(a.sys(), [&](Tx& tx) { tx.Store(xa, tx.Load(xa) + 1); });
    next_tid = a.sys().Desc().tid;
  }).join();
  EXPECT_EQ(next_tid, worker_tid);
  EXPECT_EQ(a.sys().quiesce().bound(), 2);
}

TEST(AtomicallyTest, ThreadChurnRecyclesDescriptors) {
  TmConfig cfg;
  cfg.max_threads = 8;  // far fewer than the threads created below
  Runtime rt(cfg);
  std::uint64_t x = 0;
  for (int round = 0; round < 30; ++round) {
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
      ts.emplace_back([&] {
        Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, tx.Load(x) + 1); });
      });
    }
    for (auto& t : ts) {
      t.join();
    }
  }
  EXPECT_EQ(x, 120u);
}

TEST(AtomicallyTest, ConstLoadFromSharedState) {
  Runtime rt((TmConfig()));
  const std::uint64_t x = 99;  // read-only shared data is loadable
  std::uint64_t got = Atomically(rt.sys(), [&](Tx& tx) { return tx.Load(x); });
  EXPECT_EQ(got, 99u);
}

TEST(AtomicallyTest, EnumAndSignedFields) {
  enum class Color : std::uint32_t { kRed = 1, kBlue = 2 };
  Runtime rt((TmConfig()));
  alignas(8) Color c = Color::kRed;
  alignas(8) std::int64_t s = -5;
  Atomically(rt.sys(), [&](Tx& tx) {
    tx.Store(c, Color::kBlue);
    tx.Store(s, std::int64_t{-6});
    EXPECT_EQ(tx.Load(c), Color::kBlue);
    EXPECT_EQ(tx.Load(s), -6);
  });
  EXPECT_EQ(c, Color::kBlue);
  EXPECT_EQ(s, -6);
}

TEST(AtomicallyTest, DoubleFieldRoundTrips) {
  Runtime rt((TmConfig()));
  alignas(8) double d = 1.5;
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(d, 2.25); });
  EXPECT_EQ(d, 2.25);
}

TEST(AtomicallyTest, StatsResetClearsCounters) {
  Runtime rt((TmConfig()));
  std::uint64_t x = 0;
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{1}); });
  EXPECT_GT(rt.AggregateStats().Get(Counter::kCommits), 0u);
  rt.ResetStats();
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kCommits), 0u);
}

TEST(AtomicallyTest, CounterNamesAreUnique) {
  std::vector<std::string> names;
  for (int i = 0; i < kNumCounters; ++i) {
    names.emplace_back(CounterName(static_cast<Counter>(i)));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(std::count(names.begin(), names.end(), "unknown"), 0);
}

}  // namespace
}  // namespace tcs
