// Multi-threaded correctness of the three backends: atomicity of increments,
// conserved invariants under contention, write-skew prevention, and privatization
// via transactional free. All tests are parameterized over the backends.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/random.h"
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

class StmConcurrentTest : public ::testing::TestWithParam<Backend> {
 protected:
  StmConcurrentTest() : rt_(MakeConfig()) {}

  TmConfig MakeConfig() {
    TmConfig cfg;
    cfg.backend = GetParam();
    cfg.orec_table_log2 = 14;
    cfg.max_threads = 32;
    return cfg;
  }

  Runtime rt_;
};

TEST_P(StmConcurrentTest, ParallelIncrementsAreExact) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 5000;
  std::uint64_t counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(counter, tx.Load(counter) + 1); });
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_P(StmConcurrentTest, BankTransfersConserveTotal) {
  constexpr int kAccounts = 16;
  constexpr int kThreads = 4;
  constexpr int kTransfers = 3000;
  constexpr std::uint64_t kInitial = 1000;
  std::vector<std::uint64_t> accounts(kAccounts, kInitial);

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kTransfers; ++i) {
        int from = static_cast<int>(rng.NextBounded(kAccounts));
        int to = static_cast<int>(rng.NextBounded(kAccounts));
        std::uint64_t amount = rng.NextBounded(10);
        Atomically(rt_.sys(), [&](Tx& tx) {
          std::uint64_t f = tx.Load(accounts[from]);
          if (f < amount) {
            return;
          }
          tx.Store(accounts[from], f - amount);
          tx.Store(accounts[to], tx.Load(accounts[to]) + amount);
        });
        // Concurrent read-only audit: the total must be conserved in every
        // serializable snapshot, not only at the end.
        if (i % 64 == 0) {
          std::uint64_t total = Atomically(rt_.sys(), [&](Tx& tx) {
            std::uint64_t sum = 0;
            for (int a = 0; a < kAccounts; ++a) {
              sum += tx.Load(accounts[a]);
            }
            return sum;
          });
          EXPECT_EQ(total, kAccounts * kInitial);
        }
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  std::uint64_t total = 0;
  for (auto a : accounts) {
    total += a;
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST_P(StmConcurrentTest, WriteSkewIsPrevented) {
  // Classic write-skew: each transaction reads both flags and sets its own only
  // if the other is clear. A serializable TM never lets both end up set.
  for (int round = 0; round < 200; ++round) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::thread t1([&] {
      Atomically(rt_.sys(), [&](Tx& tx) {
        if (tx.Load(y) == 0) {
          tx.Store(x, std::uint64_t{1});
        }
      });
    });
    std::thread t2([&] {
      Atomically(rt_.sys(), [&](Tx& tx) {
        if (tx.Load(x) == 0) {
          tx.Store(y, std::uint64_t{1});
        }
      });
    });
    t1.join();
    t2.join();
    EXPECT_FALSE(x == 1 && y == 1) << "round " << round;
  }
}

TEST_P(StmConcurrentTest, TransactionalListInsertRemove) {
  // A singly linked list of transactionally allocated nodes: concurrent inserts
  // and removals with transactional free (exercises privatization/quiescence).
  struct Node {
    std::uint64_t value;
    Node* next;
  };
  Node* head = nullptr;
  constexpr int kThreads = 4;
  constexpr int kOps = 800;

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        std::uint64_t v = static_cast<std::uint64_t>(t) * kOps + i;
        if (i % 2 == 0) {
          Atomically(rt_.sys(), [&](Tx& tx) {
            auto* n = static_cast<Node*>(tx.AllocBytes(sizeof(Node)));
            tx.Store(n->value, v);
            tx.Store(n->next, tx.Load(head));
            tx.Store(head, n);
          });
        } else {
          Atomically(rt_.sys(), [&](Tx& tx) {
            Node* h = tx.Load(head);
            if (h == nullptr) {
              return;
            }
            tx.Store(head, tx.Load(h->next));
            tx.FreeBytes(h);
          });
        }
      }
    });
  }
  for (auto& t : ts) {
    t.join();
  }
  // Walk and free what remains; the structure must be a well-formed list.
  int remaining = 0;
  Atomically(rt_.sys(), [&](Tx& tx) {
    remaining = 0;
    Node* n = tx.Load(head);
    while (n != nullptr) {
      Node* next = tx.Load(n->next);
      tx.FreeBytes(n);
      n = next;
      remaining++;
    }
    tx.Store(head, static_cast<Node*>(nullptr));
  });
  EXPECT_GE(remaining, 0);
  EXPECT_LE(remaining, kThreads * kOps / 2);
}

TEST_P(StmConcurrentTest, ReadersSeeConsistentPairs) {
  // Writers keep x == y at all times; readers must never observe x != y
  // (opacity: no zombie snapshots).
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    for (int i = 1; i <= 4000; ++i) {
      Atomically(rt_.sys(), [&](Tx& tx) {
        tx.Store(x, static_cast<std::uint64_t>(i));
        tx.Store(y, static_cast<std::uint64_t>(i));
      });
    }
    // mo: release — [harness] publish state to other harness threads.
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      // mo: acquire — [harness] observe worker-published state.
      while (!stop.load(std::memory_order_acquire)) {
        auto pair = Atomically(rt_.sys(), [&](Tx& tx) {
          return std::make_pair(tx.Load(x), tx.Load(y));
        });
        if (pair.first != pair.second) {
          // mo: acq_rel — [harness] cross-thread counter/flag RMW.
          violations.fetch_add(1, std::memory_order_acq_rel);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(violations.load(std::memory_order_acquire), 0);
}

// The privatization fence end to end: a writer's Commit() must not return
// while a transaction another thread began before that commit is still open
// (TmCondVar ring growth and TxFree reclamation rely on it). The reader
// registers after the writer, so it holds the highest tid — the last slot the
// quiescence scan visits. The second round's threads reuse the first round's
// released tids, which stay below the scan bound.
TEST_P(StmConcurrentTest, WriterCommitWaitsForOlderOpenTransaction) {
  struct alignas(64) Cell {
    std::uint64_t v = 0;
  };
  Cell read_cell;
  Cell write_cell;
  for (int round = 0; round < 2; ++round) {
    std::atomic<bool> writer_registered{false};
    std::atomic<bool> go{false};
    std::atomic<bool> reader_inside{false};
    std::atomic<bool> release_reader{false};
    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
      Atomically(rt_.sys(), [&](Tx& tx) { (void)tx.Load(write_cell.v); });
      // mo: release — [harness] publish registration to the test body.
      writer_registered.store(true, std::memory_order_release);
      // mo: acquire — [harness] wait for the reader's open transaction.
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Atomically(rt_.sys(), [&](Tx& tx) {
        tx.Store(write_cell.v, tx.Load(write_cell.v) + 1);
      });
      // mo: release — [harness] publish the commit's return.
      writer_done.store(true, std::memory_order_release);
    });
    // mo: acquire — [harness] observe worker-published state.
    while (!writer_registered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::thread reader([&] {
      Atomically(rt_.sys(), [&](Tx& tx) {
        (void)tx.Load(read_cell.v);
        // mo: release — [harness] the transaction is open and has begun.
        reader_inside.store(true, std::memory_order_release);
        // mo: acquire — [harness] hold the transaction open until released.
        while (!release_reader.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
    });
    // mo: acquire — [harness] observe worker-published state.
    while (!reader_inside.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    // mo: release — [harness] let the writer commit.
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // mo: acquire — [harness] observe worker-published state.
    EXPECT_FALSE(writer_done.load(std::memory_order_acquire))
        << "round " << round
        << ": writer commit returned while an older transaction was open";
    // mo: release — [harness] end the reader's transaction.
    release_reader.store(true, std::memory_order_release);
    reader.join();
    writer.join();
    // mo: acquire — [harness] ordered by the join as well.
    EXPECT_TRUE(writer_done.load(std::memory_order_acquire));
  }
  EXPECT_EQ(write_cell.v, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StmConcurrentTest,
                         ::testing::Values(Backend::kEagerStm, Backend::kLazyStm,
                                           Backend::kSimHtm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           switch (info.param) {
                             case Backend::kEagerStm:
                               return "EagerStm";
                             case Backend::kLazyStm:
                               return "LazyStm";
                             case Backend::kSimHtm:
                               return "SimHtm";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace tcs
