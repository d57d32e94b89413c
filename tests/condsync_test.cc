// Behavioral tests for the condition-synchronization mechanisms: Retry (Alg. 5),
// Await (Alg. 6), WaitPred (Alg. 7), Deschedule's lost-wakeup window, Retry-Orig
// (Alg. 1), TMCondVar (atomicity break), and the Restart strawman — across all
// three TM backends. Assertions use the runtime's event counters (sleeps, wakeups,
// wake checks) rather than timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <optional>
#include <thread>

#include "src/condsync/tm_condvar.h"
#include "src/condsync/wake_index.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/core/tvar.h"

// mo-edge: [harness] (minimal: release/acquire) — test/bench harness
// coordination: flags and counters published by worker threads and
// observed by the test body or sibling threads (often additionally
// ordered by thread join). acquire/release is a uniform upper bound
// chosen over per-site minimality; none of these sites needs seq_cst
// totality.

namespace tcs {
namespace {

TmConfig ConfigFor(Backend b) {
  TmConfig cfg;
  cfg.backend = b;
  cfg.orec_table_log2 = 12;
  cfg.max_threads = 32;
  return cfg;
}

// Polls aggregate stats until `counter` reaches `target` (waiter observably
// asleep / woken), bounded by a generous timeout.
void AwaitCounter(Runtime& rt, Counter c, std::uint64_t target) {
  for (int i = 0; i < 100000; ++i) {
    if (rt.AggregateStats().Get(c) >= target) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  FAIL() << "counter " << CounterName(c) << " never reached " << target;
}

class CondSyncTest : public ::testing::TestWithParam<Backend> {
 protected:
  CondSyncTest() : rt_(ConfigFor(GetParam())) {}
  Runtime rt_;
};

TEST_P(CondSyncTest, RetryWakesOnChange) {
  std::uint64_t flag = 0;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.Retry();
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  TxStats s = rt_.AggregateStats();
  if (GetParam() == Backend::kSimHtm) {
    // On HTM, Retry aborts the hardware attempt and re-executes in software mode
    // with logging already enabled; there is no separate logging restart.
    EXPECT_GE(s.Get(Counter::kHtmExplicitAborts), 1u);
  } else {
    EXPECT_GE(s.Get(Counter::kRetryRestarts), 1u);  // first pass re-executes to log
  }
  EXPECT_GE(s.Get(Counter::kWakeups), 1u);
  EXPECT_GE(s.Get(Counter::kDeschedules), 1u);
}

TEST_P(CondSyncTest, SilentStoreDoesNotWakeRetry) {
  std::uint64_t flag = 0;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.Retry();
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  // A silent store: writes the value already present. Value-based waitsets make
  // this invisible to the waiter (§2.2.3); the writer checks but must not wake.
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{0}); });
  AwaitCounter(rt_, Counter::kWakeChecks, 1);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeups), 0u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWakeups), 1u);
}

TEST_P(CondSyncTest, AwaitIgnoresUnrelatedWrites) {
  std::uint64_t interesting = 0;
  std::uint64_t unrelated = 0;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(interesting) == 0) {
        tx.Await(interesting);
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  // Writes to locations outside the Await address list must not wake. With the
  // targeted wake index these commits normally skip even the wake *check*
  // (their write-set shards don't cover the waiter); a hash collision may
  // still produce a harmless rejected check, never a wakeup.
  for (int i = 1; i <= 3; ++i) {
    Atomically(rt_.sys(), [&](Tx& tx) {
      tx.Store(unrelated, static_cast<std::uint64_t>(i));
    });
  }
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeups), 0u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(interesting, std::uint64_t{1}); });
  waiter.join();
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWakeups), 1u);
}

TEST_P(CondSyncTest, AwaitSeesOwnWritesRolledBack) {
  // A transaction that wrote the awaited location must log the pre-transaction
  // value, not its own speculative one, or it would wake spuriously (§2.2.6).
  std::uint64_t x = 5;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(x) == 5) {
        tx.Store(x, std::uint64_t{99});  // speculative write, undone by Await
        tx.Await(x);
      }
      // After wakeup: x was changed by the writer.
      EXPECT_EQ(tx.Load(x), 6u);
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  // A silent store to x targets the waiter's own shard, so the wake check runs
  // even under targeted wakeup; the waitset entry for x must hold 5 (the
  // rolled-back value), which still matches memory, so no wake.
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{5}); });
  AwaitCounter(rt_, Counter::kWakeChecks, 1);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeups), 0u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{6}); });
  waiter.join();
}

struct ThresholdState {
  std::uint64_t count = 0;
};

bool CountAtLeastPred(TmSystem& sys, const WaitArgs& args) {
  const auto* st = reinterpret_cast<const ThresholdState*>(args.v[0]);
  TmWord v = sys.Read(reinterpret_cast<const TmWord*>(&st->count));
  return v >= args.v[1];
}

TEST_P(CondSyncTest, WaitPredFiltersUnsatisfyingWrites) {
  ThresholdState st;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(st.count) < 3) {
        WaitArgs args;
        args.v[0] = reinterpret_cast<TmWord>(&st);
        args.v[1] = 3;
        args.n = 2;
        tx.WaitPred(&CountAtLeastPred, args);
      }
      EXPECT_GE(tx.Load(st.count), 3u);
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  // Increments 1 and 2 change the location the predicate reads, but do not
  // satisfy it: WaitPred's whole point is that these cause no wakeup (unlike
  // Retry/Await, which would wake on any change).
  for (int i = 1; i <= 2; ++i) {
    Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(st.count, tx.Load(st.count) + 1); });
  }
  AwaitCounter(rt_, Counter::kWakeChecks, 2);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeups), 0u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(st.count, tx.Load(st.count) + 1); });
  waiter.join();
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWakeups), 1u);
}

TEST_P(CondSyncTest, DescheduleDoubleCheckAvoidsSleepWhenConditionHolds) {
  // If the precondition already holds when the registration transaction
  // double-checks it, the waiter must restart immediately instead of sleeping
  // (Algorithm 4, line 7). Forced deterministically with an always-true
  // predicate: the body's own test was stale, the registration check is not.
  std::uint64_t dummy = 1;
  int calls = 0;
  Atomically(rt_.sys(), [&](Tx& tx) {
    // Allow up to two attempts to reach WaitPred (on HTM the first call only
    // switches to software mode); the deschedule then restarts the body, which
    // must finally commit without ever sleeping.
    if (++calls <= 2) {
      WaitArgs args;
      args.v[0] = reinterpret_cast<TmWord>(&dummy);
      args.v[1] = 1;  // threshold already met
      args.n = 2;
      // Reuse the threshold predicate against a location that already satisfies
      // it: deschedules, double-checks, and restarts without sleeping.
      tx.WaitPred(&CountAtLeastPred, args);
    }
  });
  TxStats s = rt_.AggregateStats();
  EXPECT_GE(s.Get(Counter::kDeschedules), 1u);
  EXPECT_EQ(s.Get(Counter::kSleeps), 0u);
}

TEST_P(CondSyncTest, ManyWaitersBroadcastWake) {
  std::uint64_t flag = 0;
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      Atomically(rt_.sys(), [&](Tx& tx) {
        if (tx.Load(flag) == 0) {
          tx.Retry();
        }
      });
    });
  }
  AwaitCounter(rt_, Counter::kSleeps, kWaiters);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  for (auto& t : waiters) {
    t.join();
  }
  // One commit satisfied all waiters: effectively a broadcast (§2.4.1).
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWakeups), kWaiters);
}

TEST_P(CondSyncTest, PingPongRetry) {
  // Two threads alternate on a turn variable through many sleep/wake cycles.
  constexpr std::uint64_t kRounds = 400;
  std::uint64_t turn = 0;
  auto runner = [&](std::uint64_t me) {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      Atomically(rt_.sys(), [&](Tx& tx) {
        if (tx.Load(turn) % 2 != me) {
          tx.Retry();
        }
        tx.Store(turn, tx.Load(turn) + 1);
      });
    }
  };
  std::thread a([&] { runner(0); });
  std::thread b([&] { runner(1); });
  a.join();
  b.join();
  EXPECT_EQ(turn, 2 * kRounds);
}

TEST_P(CondSyncTest, LostWakeupStress) {
  // The central race (§2.1): a writer commits while the waiter is registering.
  // Any lost wakeup hangs this test (ctest timeout).
  constexpr int kRounds = 300;
  std::uint64_t flag = 0;
  for (int r = 1; r <= kRounds; ++r) {
    std::thread waiter([&] {
      Atomically(rt_.sys(), [&](Tx& tx) {
        if (tx.Load(flag) < static_cast<std::uint64_t>(r)) {
          tx.Retry();
        }
      });
    });
    // No sleep synchronization on purpose: the writer races the registration.
    Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, static_cast<std::uint64_t>(r)); });
    waiter.join();
  }
  SUCCEED();
}

TEST_P(CondSyncTest, RestartMechanismCompletes) {
  std::uint64_t flag = 0;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.RestartNow();
      }
    });
  });
  // Not a fixed delay: on a loaded machine the waiter may not have run yet.
  AwaitCounter(rt_, Counter::kExplicitRestarts, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kExplicitRestarts), 1u);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kSleeps), 0u);  // spins, never sleeps
}

TEST_P(CondSyncTest, TmCondVarBasicHandoff) {
  std::uint64_t flag = 0;
  TmCondVar cv(32);
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.CondWait(cv);
      }
    });
  });
  AwaitCounter(rt_, Counter::kCondVarWaits, 1);
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.Store(flag, std::uint64_t{1});
    tx.CondSignal(cv);
  });
  waiter.join();
  EXPECT_EQ(flag, 1u);
}

TEST_P(CondSyncTest, TmCondVarBreaksAtomicity) {
  // The partial update before the wait becomes visible while the waiter sleeps —
  // the precise hazard of Algorithm 3 that the paper's mechanisms avoid.
  std::uint64_t partial = 0;
  std::uint64_t flag = 0;
  TmCondVar cv(32);
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      tx.Store(partial, std::uint64_t{1});
      if (tx.Load(flag) == 0) {
        tx.CondWait(cv);
      }
      tx.Store(partial, std::uint64_t{0});
    });
  });
  AwaitCounter(rt_, Counter::kCondVarWaits, 1);
  std::uint64_t observed =
      Atomically(rt_.sys(), [&](Tx& tx) { return tx.Load(partial); });
  EXPECT_EQ(observed, 1u) << "condvar wait must expose the partial update";
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.Store(flag, std::uint64_t{1});
    tx.CondSignal(cv);
  });
  waiter.join();
  EXPECT_EQ(partial, 0u);
}

TEST_P(CondSyncTest, RetryPreservesAtomicityWhereCondVarBreaksIt) {
  // Same shape as TmCondVarBreaksAtomicity, but with Retry: the partial update
  // must never be observable.
  std::uint64_t partial = 0;
  std::uint64_t flag = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      tx.Store(partial, std::uint64_t{1});
      if (tx.Load(flag) == 0) {
        tx.Retry();
      }
      tx.Store(partial, std::uint64_t{0});
    });
  });
  std::thread observer([&] {
    // mo: acquire — [harness] observe worker-published state.
    while (!stop.load(std::memory_order_acquire)) {
      std::uint64_t v =
          Atomically(rt_.sys(), [&](Tx& tx) { return tx.Load(partial); });
      if (v != 0) {
        // mo: acq_rel — [harness] cross-thread counter/flag RMW.
        violations.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  // mo: release — [harness] publish state to other harness threads.
  stop.store(true, std::memory_order_release);
  observer.join();
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(violations.load(std::memory_order_acquire), 0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CondSyncTest,
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

// Retry-Orig runs only on the STM backends (§2.1).
class RetryOrigTest : public ::testing::TestWithParam<Backend> {
 protected:
  RetryOrigTest() : rt_(ConfigFor(GetParam())) {}
  Runtime rt_;
};

TEST_P(RetryOrigTest, WakesOnOverlappingWrite) {
  std::uint64_t flag = 0;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.RetryOrig();
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  EXPECT_EQ(flag, 1u);
}

TEST_P(RetryOrigTest, SilentStoreWakesOrigButNotOurs) {
  // Orec-based wakeups cannot distinguish silent stores: Retry-Orig wakes (and
  // the waiter re-sleeps), demonstrating the imprecision value-based waitsets fix.
  std::uint64_t flag = 0;
  std::atomic<int> attempts{0};
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      // mo: acq_rel — [harness] cross-thread counter/flag RMW.
      attempts.fetch_add(1, std::memory_order_acq_rel);
      if (tx.Load(flag) == 0) {
        tx.RetryOrig();
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  // mo: acquire — [harness] observe worker-published state.
  int before = attempts.load(std::memory_order_acquire);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{0}); });  // silent
  // The orec version changed, so Retry-Orig wakes and the body re-runs.
  // mo: acquire — [harness] observe worker-published state.
  for (int i = 0; i < 10000 && attempts.load(std::memory_order_acquire) == before; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_GT(attempts.load(std::memory_order_acquire), before) << "Retry-Orig should wake on a silent store";
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
}

TEST_P(RetryOrigTest, PingPong) {
  constexpr std::uint64_t kRounds = 200;
  std::uint64_t turn = 0;
  auto runner = [&](std::uint64_t me) {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      Atomically(rt_.sys(), [&](Tx& tx) {
        if (tx.Load(turn) % 2 != me) {
          tx.RetryOrig();
        }
        tx.Store(turn, tx.Load(turn) + 1);
      });
    }
  };
  std::thread a([&] { runner(0); });
  std::thread b([&] { runner(1); });
  a.join();
  b.join();
  EXPECT_EQ(turn, 2 * kRounds);
}

INSTANTIATE_TEST_SUITE_P(StmBackends, RetryOrigTest,
                         ::testing::Values(Backend::kEagerStm, Backend::kLazyStm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kEagerStm ? "EagerStm"
                                                                   : "LazyStm";
                         });

// --- OrElse: composable choice with partial rollback ---

class OrElseTest : public ::testing::TestWithParam<Backend> {
 protected:
  OrElseTest() : rt_(ConfigFor(GetParam())) {}
  Runtime rt_;
};

TEST_P(OrElseTest, FirstBranchWinsWhenItCompletes) {
  TVar<std::uint64_t> x(7);
  std::uint64_t got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse([&](Tx& t) { return t.Load(x); },
                     [&](Tx&) -> std::uint64_t { return 999; });
  });
  EXPECT_EQ(got, 7u);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kOrElseFallbacks), 0u);
}

TEST_P(OrElseTest, FallsBackWhenFirstBranchRetries) {
  TVar<std::uint64_t> empty_flag(0);
  std::uint64_t got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse(
        [&](Tx& t) -> std::uint64_t {
          if (t.Load(empty_flag) == 0) {
            t.Retry();
          }
          return 1;
        },
        [&](Tx&) -> std::uint64_t { return 2; });
  });
  EXPECT_EQ(got, 2u);
  TxStats s = rt_.AggregateStats();
  EXPECT_GE(s.Get(Counter::kOrElseFallbacks), 1u);
  EXPECT_GE(s.Get(Counter::kPartialRollbacks), 1u);
  // The fallback happened inside one transaction: no deschedule, no sleep.
  EXPECT_EQ(s.Get(Counter::kSleeps), 0u);
}

TEST_P(OrElseTest, PartialRollbackUndoesFirstBranchWrites) {
  TVar<std::uint64_t> cell(5);
  TVar<std::uint64_t> gate(0);
  std::uint64_t seen_in_branch2 = 99;
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.OrElse(
        [&](Tx& t) {
          t.Store(cell, std::uint64_t{77});  // speculative, must be undone
          if (t.Load(gate) == 0) {
            t.Retry();
          }
        },
        [&](Tx& t) { seen_in_branch2 = t.Load(cell); });
  });
  EXPECT_EQ(seen_in_branch2, 5u) << "branch 2 must see pre-branch-1 state";
  EXPECT_EQ(cell.UnsafeRead(), 5u) << "branch 1's write must not commit";
}

TEST_P(OrElseTest, SecondBranchWritesCommit) {
  TVar<std::uint64_t> a(0);
  TVar<std::uint64_t> b(0);
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.OrElse(
        [&](Tx& t) {
          t.Store(a, std::uint64_t{1});
          t.Retry();
        },
        [&](Tx& t) { t.Store(b, std::uint64_t{2}); });
  });
  EXPECT_EQ(a.UnsafeRead(), 0u);
  EXPECT_EQ(b.UnsafeRead(), 2u);
}

TEST_P(OrElseTest, NestedOrElseCascadesInnermostFirst) {
  TVar<std::uint64_t> never(0);
  std::uint64_t got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse(
        [&](Tx& t) -> std::uint64_t {
          return t.OrElse(
              [&](Tx& t2) -> std::uint64_t {
                if (t2.Load(never) == 0) {
                  t2.Retry();  // inner branch 1 fails
                }
                return 1;
              },
              [&](Tx& t2) -> std::uint64_t {
                if (t2.Load(never) == 0) {
                  t2.Retry();  // inner branch 2 fails -> outer alternative
                }
                return 2;
              });
        },
        [&](Tx&) -> std::uint64_t { return 3; });
  });
  EXPECT_EQ(got, 3u);
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kOrElseFallbacks), 2u);
}

TEST_P(OrElseTest, BothBranchesRetryWakesOnEitherReadSet) {
  // The acceptance scenario: both branches retry, so the thread descheds on
  // the *union* of their read sets. A write to either cell must wake it.
  for (int round = 0; round < 2; ++round) {
    Runtime rt(ConfigFor(GetParam()));
    TVar<std::uint64_t> cell_a(0);
    TVar<std::uint64_t> cell_b(0);
    std::uint64_t got = 0;
    std::thread waiter([&] {
      got = Atomically(rt.sys(), [&](Tx& tx) {
        return tx.OrElse(
            [&](Tx& t) -> std::uint64_t {
              std::uint64_t v = t.Load(cell_a);
              if (v == 0) {
                t.Retry();
              }
              return 100 + v;
            },
            [&](Tx& t) -> std::uint64_t {
              std::uint64_t v = t.Load(cell_b);
              if (v == 0) {
                t.Retry();
              }
              return 200 + v;
            });
      });
    });
    AwaitCounter(rt, Counter::kSleeps, 1);
    if (round == 0) {
      // Wake via the FIRST branch's read set.
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell_a, std::uint64_t{1}); });
      waiter.join();
      EXPECT_EQ(got, 101u);
    } else {
      // Wake via the SECOND branch's read set.
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell_b, std::uint64_t{5}); });
      waiter.join();
      EXPECT_EQ(got, 205u);
    }
    EXPECT_GE(rt.AggregateStats().Get(Counter::kWakeups), 1u);
  }
}

TEST_P(OrElseTest, AwaitAndWaitPredAlsoTransferToAlternative) {
  // Every wait style inside an OrElse branch — not just Retry — must fall
  // back to the alternative instead of descheduling the whole transaction.
  TVar<std::uint64_t> cell(0);
  std::uint64_t got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse(
        [&](Tx& t) -> std::uint64_t {
          if (t.Load(cell) == 0) {
            t.Await(cell);  // would sleep forever without the fallback
          }
          return 1;
        },
        [&](Tx&) -> std::uint64_t { return 2; });
  });
  EXPECT_EQ(got, 2u);
  got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse(
        [&](Tx& t) -> std::uint64_t {
          if (t.Load(cell) == 0) {
            WaitArgs args;
            args.v[0] = reinterpret_cast<TmWord>(&cell);
            args.v[1] = 1;
            args.n = 2;
            t.WaitPred(&CountAtLeastPred, args);
          }
          return 1;
        },
        [&](Tx&) -> std::uint64_t { return 3; });
  });
  EXPECT_EQ(got, 3u);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kSleeps), 0u);
}

TEST_P(OrElseTest, ComposesAcrossNestedAtomically) {
  // Subsumption nesting: a Retry raised inside a nested Atomically body
  // propagates to the enclosing OrElse alternative (§1.2 composability).
  TVar<std::uint64_t> empty_flag(0);
  auto blocking_take = [&](Tx& tx) -> std::uint64_t {
    return Atomically(tx.sys(), [&](Tx& t) -> std::uint64_t {
      if (t.Load(empty_flag) == 0) {
        t.Retry();
      }
      return 1;
    });
  };
  std::uint64_t got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse([&](Tx& t) { return blocking_take(t); },
                     [&](Tx&) -> std::uint64_t { return 42; });
  });
  EXPECT_EQ(got, 42u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, OrElseTest,
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

// --- Timed waits: RetryFor / AwaitFor / WaitPredFor ---

class TimedWaitTest : public ::testing::TestWithParam<Backend> {
 protected:
  TimedWaitTest() : rt_(ConfigFor(GetParam())) {}
  Runtime rt_;
};

// Budgets below, at, and well above the timer wheel's 1-ms tick. The wheel
// rounds deadlines up to a tick, and that rule alone keeps a timeout from
// firing early, so each wait is timed from outside Atomically.
TEST_P(TimedWaitTest, RetryForTimesOutAndLeavesNoRegistryEntry) {
  TVar<std::uint64_t> flag(0);
  std::uint64_t timeouts = 0;
  for (std::chrono::microseconds budget :
       {std::chrono::microseconds(200), std::chrono::microseconds(1000),
        std::chrono::microseconds(30000)}) {
    const auto start = std::chrono::steady_clock::now();
    bool got = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
      if (tx.Load(flag) == 0) {
        if (tx.RetryFor(budget) == WaitResult::kTimedOut) {
          return false;
        }
      }
      return true;
    });
    const std::chrono::nanoseconds elapsed =
        std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(got) << budget.count() << " us";
    EXPECT_GE(elapsed.count(),
              std::chrono::nanoseconds(budget).count())
        << "timed out early at " << budget.count() << " us";
    TxStats s = rt_.AggregateStats();
    EXPECT_GT(s.Get(Counter::kWaitTimeouts), timeouts) << budget.count()
                                                       << " us";
    timeouts = s.Get(Counter::kWaitTimeouts);
    // The acceptance criterion: the expired waiter must not leak its slot.
    EXPECT_EQ(rt_.sys().wake_index().RegisteredCount(), 0) << budget.count()
                                                        << " us";
  }
  TxStats s = rt_.AggregateStats();
  EXPECT_GE(s.Get(Counter::kSleeps), 1u);
  // And later writer commits must not pay wake checks for a ghost waiter.
  std::uint64_t checks_before = s.Get(Counter::kWakeChecks);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeChecks), checks_before);
}

TEST_P(TimedWaitTest, RetryForWakesBeforeDeadline) {
  TVar<std::uint64_t> flag(0);
  bool got = false;
  std::thread waiter([&] {
    got = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
      if (tx.Load(flag) == 0) {
        if (tx.RetryFor(std::chrono::seconds(30)) == WaitResult::kTimedOut) {
          return false;
        }
      }
      return true;
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  EXPECT_TRUE(got);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 0u);
}

TEST_P(TimedWaitTest, RetryForInfiniteTimeoutEqualsRetry) {
  // kNoTimeout must behave exactly like plain Retry: sleep indefinitely, wake
  // on a relevant write, never produce a timeout.
  TVar<std::uint64_t> flag(0);
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        WaitResult r = tx.RetryFor(kNoTimeout);
        // Unreachable: an untimed retry never returns.
        ADD_FAILURE() << "RetryFor(kNoTimeout) returned "
                      << static_cast<int>(r);
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  TxStats s = rt_.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kWaitTimeouts), 0u);
  EXPECT_GE(s.Get(Counter::kWakeups), 1u);
  EXPECT_GE(s.Get(Counter::kDeschedules), 1u);
}

TEST_P(TimedWaitTest, AwaitForTimesOut) {
  TVar<std::uint64_t> cell(0);
  bool timed_out = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
    if (tx.Load(cell) == 0) {
      return tx.AwaitFor(std::chrono::milliseconds(30), cell) ==
             WaitResult::kTimedOut;
    }
    return false;
  });
  EXPECT_TRUE(timed_out);
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 1u);
  EXPECT_EQ(rt_.sys().wake_index().RegisteredCount(), 0);
}

bool FlagSetPred(TmSystem& sys, const WaitArgs& args) {
  const auto* cell = reinterpret_cast<const TVar<std::uint64_t>*>(args.v[0]);
  return sys.Read(cell->word()) != 0;
}

TEST_P(TimedWaitTest, WaitPredForTimesOut) {
  TVar<std::uint64_t> cell(0);
  bool timed_out = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
    if (tx.Load(cell) == 0) {
      WaitArgs args;
      args.v[0] = reinterpret_cast<TmWord>(&cell);
      args.n = 1;
      return tx.WaitPredFor(&FlagSetPred, args, std::chrono::milliseconds(30)) ==
             WaitResult::kTimedOut;
    }
    return false;
  });
  EXPECT_TRUE(timed_out);
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 1u);
  EXPECT_EQ(rt_.sys().wake_index().RegisteredCount(), 0);
}

TEST_P(TimedWaitTest, TimeoutRaceWithWakeupDrainsSemaphore) {
  // Hammer the timeout/wakeup race: a waiter with a tiny deadline against a
  // writer committing at the same moment. Whatever interleaving happens, the
  // waiter must terminate (bounded!), leave no registry entry, and a stale
  // semaphore post must never satisfy the next round's sleep spuriously.
  for (int round = 1; round <= 50; ++round) {
    TVar<std::uint64_t> flag(0);
    std::thread waiter([&] {
      (void)Atomically(rt_.sys(), [&](Tx& tx) -> bool {
        if (tx.Load(flag) == 0) {
          if (tx.RetryFor(std::chrono::microseconds(200)) ==
              WaitResult::kTimedOut) {
            return false;
          }
        }
        return true;
      });
    });
    Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
    waiter.join();
    ASSERT_EQ(rt_.sys().wake_index().RegisteredCount(), 0) << "round " << round;
  }
}

TEST_P(TimedWaitTest, DeadlineSpansRestartsNotSleeps) {
  // Two unsatisfying wakeups before the deadline: the bound covers total
  // elapsed time, so the waiter re-sleeps with the remaining budget and
  // eventually reports kTimedOut rather than resetting its clock per sleep.
  TVar<std::uint64_t> target(0);
  TVar<std::uint64_t> noise(0);
  std::atomic<bool> done{false};
  bool got = true;
  std::thread waiter([&] {
    got = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
      tx.Load(noise);
      if (tx.Load(target) == 0) {
        if (tx.RetryFor(std::chrono::milliseconds(150)) ==
            WaitResult::kTimedOut) {
          return false;
        }
      }
      return true;
    });
    // mo: release — [harness] publish state to other harness threads.
    done.store(true, std::memory_order_release);
  });
  // Unsatisfying wakeups: noise changes, target stays 0.
  auto start = std::chrono::steady_clock::now();
  std::uint64_t n = 0;
  // mo: acquire — [harness] observe worker-published state.
  while (!done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(20)) {
    Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(noise, ++n); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  waiter.join();
  EXPECT_FALSE(got) << "waiter should time out despite repeated false wakeups";
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 1u);
}

TEST_P(TimedWaitTest, SequentialTimedWaitsGetIndependentDeadlines) {
  // Two timed waits in sequence: wait for step1 with a short budget, then —
  // after step1 is satisfied — wait for step2 with a generous one. Deadlines
  // are scoped to the individual call, so the second wait starts its own
  // clock. Under the old shared restart-spanning transaction deadline the
  // second wait inherited the first call's (short, mostly spent) budget and
  // timed out long before step2 was published.
  TVar<std::uint64_t> step1(0);
  TVar<std::uint64_t> step2(0);
  std::atomic<int> phase{0};
  bool step2_seen = false;
  std::thread waiter([&] {
    step2_seen = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
      if (tx.Load(step1) == 0) {
        // mo: release — [harness] publish state to other harness threads.
        phase.store(1, std::memory_order_release);
        if (tx.AwaitFor(std::chrono::milliseconds(500), step1) ==
            WaitResult::kTimedOut) {
          return false;
        }
      }
      if (tx.Load(step2) == 0) {
        // mo: release — [harness] publish state to other harness threads.
        phase.store(2, std::memory_order_release);
        if (tx.AwaitFor(std::chrono::seconds(30), step2) ==
            WaitResult::kTimedOut) {
          return false;
        }
      }
      return true;
    });
  });
  // mo: acquire — [harness] observe worker-published state.
  while (phase.load(std::memory_order_acquire) < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(step1, std::uint64_t{1}); });
  // mo: acquire — [harness] observe worker-published state.
  while (phase.load(std::memory_order_acquire) < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Publish step2 well after the first call's 500ms budget is gone; the
  // second call's 30s budget has barely started.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(step2, std::uint64_t{1}); });
  waiter.join();
  EXPECT_TRUE(step2_seen)
      << "second timed wait inherited the first call's deadline";
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 0u);
}

TEST_P(TimedWaitTest, SameCallSiteSequentialWaitsGetIndependentDeadlines) {
  // The adapter pattern: both waits funnel through ONE RetryFor call site (a
  // shared helper), so the source location alone cannot tell them apart. The
  // wait's identity also folds in the waitset's addresses — the second wait
  // reads a different set and must still get its own budget.
  TVar<std::uint64_t> step1(0);
  TVar<std::uint64_t> step2(0);
  std::atomic<int> phase{0};
  bool ok = false;
  std::thread waiter([&] {
    ok = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
      auto wait_nonzero = [&](TVar<std::uint64_t>& cell,
                              std::chrono::nanoseconds timeout,
                              int ph) -> bool {
        if (tx.Load(cell) != 0) {
          return true;
        }
        // mo: release — [harness] publish state to other harness threads.
        phase.store(ph, std::memory_order_release);
        // One shared call site for every wait in this transaction.
        return tx.RetryFor(timeout) != WaitResult::kTimedOut;
      };
      if (!wait_nonzero(step1, std::chrono::milliseconds(500), 1)) {
        return false;
      }
      if (!wait_nonzero(step2, std::chrono::seconds(30), 2)) {
        return false;
      }
      return true;
    });
  });
  // mo: acquire — [harness] observe worker-published state.
  while (phase.load(std::memory_order_acquire) < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(step1, std::uint64_t{1}); });
  // mo: acquire — [harness] observe worker-published state.
  while (phase.load(std::memory_order_acquire) < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(step2, std::uint64_t{1}); });
  waiter.join();
  EXPECT_TRUE(ok) << "second wait through the shared call site inherited the "
                     "first wait's deadline";
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TimedWaitTest,
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

// Simulated-HTM specifics.
TEST(SimHtmCondSyncTest, RetryFallsBackToSoftwareMode) {
  Runtime rt(ConfigFor(Backend::kSimHtm));
  std::uint64_t flag = 0;
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.Retry();
      }
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  TxStats s = rt.AggregateStats();
  // The hardware attempt aborted explicitly and re-executed serially.
  EXPECT_GE(s.Get(Counter::kHtmExplicitAborts), 1u);
  EXPECT_GE(s.Get(Counter::kHtmFallbacks), 1u);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
}

// WaitPred's hardware-to-software path: a hardware transaction cannot
// deschedule, so it aborts explicitly and re-executes serially.
TEST(SimHtmCondSyncTest, WaitPredFallsBackToSoftwareMode) {
  Runtime rt(ConfigFor(Backend::kSimHtm));
  TVar<std::uint64_t> flag(0);
  WaitArgs args;
  args.v[0] = reinterpret_cast<TmWord>(&flag);
  args.n = 1;
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.WaitPred(&FlagSetPred, args);
      }
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kHtmExplicitAborts), 1u);
  EXPECT_GE(s.Get(Counter::kHtmFallbacks), 1u);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
}

TEST(SimHtmCondSyncTest, NonWaitingTransactionsStayInHardwareMode) {
  Runtime rt(ConfigFor(Backend::kSimHtm));
  std::uint64_t x = 0;
  for (int i = 0; i < 100; ++i) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, tx.Load(x) + 1); });
  }
  // No waiter ever existed: writers paid no fallback and no wake checks.
  TxStats s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kHtmFallbacks), 0u);
  EXPECT_EQ(s.Get(Counter::kWakeChecks), 0u);
}

// --- Deschedule edge cases: slot reuse, read-only commits ---

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

// --- Waits run between attempts, after the waiting attempt has unwound ---

bool AlwaysTruePred(TmSystem&, const WaitArgs&) { return true; }

// Spins until `flag` is set or `limit` passes; returns whether it was set.
bool AwaitFlag(const std::atomic<bool>& flag, std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  // mo: acquire — [harness] observe worker-published state.
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

// A body-local object whose destructor, when an unwind runs it, records
// whether the thread slept while the object was alive: true means the wait
// slept inside the body's frame instead of after it had unwound.
class SleepWitness {
 public:
  SleepWitness(TmSystem& sys, bool& slept_in_frame)
      : sys_(sys), slept_in_frame_(slept_in_frame), at_entry_(Sleeps()) {}
  ~SleepWitness() {
    if (std::uncaught_exceptions() > 0 && Sleeps() > at_entry_) {
      slept_in_frame_ = true;
    }
  }
  SleepWitness(const SleepWitness&) = delete;
  SleepWitness& operator=(const SleepWitness&) = delete;

 private:
  std::uint64_t Sleeps() { return sys_.Desc().stats.Get(Counter::kSleeps); }
  TmSystem& sys_;
  bool& slept_in_frame_;
  const std::uint64_t at_entry_;
};

// Set by the destructor of a body-local object; read by GuardGonePred.
struct GuardProbe {
  std::atomic<bool> gone{false};
  std::atomic<int> checks{0};
  std::atomic<bool> first_check_saw_gone{false};
};

class ProbeGuard {
 public:
  explicit ProbeGuard(GuardProbe& p) : p_(p) {
    // mo: release — [harness] publish state to other harness threads.
    p_.gone.store(false, std::memory_order_release);
  }
  // mo: release — [harness] publish state to other harness threads.
  ~ProbeGuard() { p_.gone.store(true, std::memory_order_release); }
  ProbeGuard(const ProbeGuard&) = delete;
  ProbeGuard& operator=(const ProbeGuard&) = delete;

 private:
  GuardProbe& p_;
};

// Records what the first evaluation (the registration double-check) saw, and
// reports the precondition as holding, so the waiter never sleeps.
bool GuardGonePred(TmSystem&, const WaitArgs& args) {
  auto* p = reinterpret_cast<GuardProbe*>(args.v[0]);
  // mo: acquire — [harness] observe worker-published state.
  const bool guard_gone = p->gone.load(std::memory_order_acquire);
  // mo: acq_rel — [harness] cross-thread counter/flag RMW.
  if (p->checks.fetch_add(1, std::memory_order_acq_rel) == 0) {
    // mo: release — [harness] publish state to other harness threads.
    p->first_check_saw_gone.store(guard_gone, std::memory_order_release);
  }
  return true;
}

class WaitAfterUnwindTest : public ::testing::TestWithParam<Backend> {
 protected:
  WaitAfterUnwindTest() : rt_(ConfigFor(GetParam())) {}
  Runtime rt_;
};

// The registration double-check runs in OnRestart, so the body's RAII guard
// is already destroyed when the predicate first runs.
TEST_P(WaitAfterUnwindTest, WaitPredDoubleCheckSeesTheBodyUnwound) {
  GuardProbe probe;
  WaitArgs args;
  args.v[0] = reinterpret_cast<TmWord>(&probe);
  args.n = 1;
  int tries = 0;
  Atomically(rt_.sys(), [&](Tx& tx) {
    // On sim-HTM the first WaitPred only switches to software mode.
    // mo: acquire — [harness] observe worker-published state.
    if (++tries <= 2 && probe.checks.load(std::memory_order_acquire) == 0) {
      ProbeGuard guard(probe);
      tx.WaitPred(&GuardGonePred, args);
    }
  });
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(probe.checks.load(std::memory_order_acquire), 1);
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_TRUE(probe.first_check_saw_gone.load(std::memory_order_acquire))
      << "the double-check ran inside the body, before its frame unwound";
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kSleeps), 0u);
}

enum class TimedKind { kRetryFor, kAwaitFor, kWaitPredFor };

WaitResult TimedWaitOn(Tx& tx, TimedKind kind, TVar<std::uint64_t>& cell) {
  constexpr auto kBudget = std::chrono::milliseconds(2);
  switch (kind) {
    case TimedKind::kRetryFor:
      return tx.RetryFor(kBudget);
    case TimedKind::kAwaitFor:
      return tx.AwaitFor(kBudget, cell);
    case TimedKind::kWaitPredFor:
      break;
  }
  WaitArgs args;
  args.v[0] = reinterpret_cast<TmWord>(&cell);
  args.n = 1;
  return tx.WaitPredFor(&FlagSetPred, args, kBudget);
}

// A timed wait reached from a nested Atomically or from OrElse's last
// alternative sleeps after the whole attempt unwound, and still times out
// with no waiter left in the wake index.
TEST_P(WaitAfterUnwindTest, TimedWaitsInNestedAtomicallyAndOrElseTimeOutClean) {
  TVar<std::uint64_t> cell(0);
  for (TimedKind kind :
       {TimedKind::kRetryFor, TimedKind::kAwaitFor, TimedKind::kWaitPredFor}) {
    for (bool or_else : {false, true}) {
      const int k = static_cast<int>(kind);
      const std::uint64_t sleeps = rt_.AggregateStats().Get(Counter::kSleeps);
      bool slept_in_frame = false;
      auto timed = [&](Tx& t) -> WaitResult {
        SleepWitness witness(t.sys(), slept_in_frame);
        if (t.Load(cell) == 0) {
          return TimedWaitOn(t, kind, cell);
        }
        return WaitResult::kSatisfied;
      };
      WaitResult r = Atomically(rt_.sys(), [&](Tx& tx) -> WaitResult {
        if (or_else) {
          return tx.OrElse([](Tx& t) -> WaitResult { t.Retry(); }, timed);
        }
        return Atomically(tx.sys(), timed);
      });
      EXPECT_EQ(r, WaitResult::kTimedOut) << k << " or_else " << or_else;
      EXPECT_GT(rt_.AggregateStats().Get(Counter::kSleeps), sleeps)
          << k << " or_else " << or_else;
      EXPECT_FALSE(slept_in_frame) << k << " or_else " << or_else;
      EXPECT_EQ(rt_.sys().wake_index().RegisteredCount(), 0)
          << k << " or_else " << or_else;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, WaitAfterUnwindTest,
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

// Runs `wake` on a helper thread while the waiter's attempt unwinds: a Guard
// in the body, destroyed by that unwind, hands over to the helper and holds
// the unwind until the wake is done. A waiter that parked before unwinding
// would never get there, so the helper gives up after 2 s and wakes it
// anyway; Late() reports that.
class UnwindWaker {
 public:
  explicit UnwindWaker(std::function<void()> wake)
      : helper_([this, wake = std::move(wake)] {
          late_ = !AwaitFlag(unwinding_, std::chrono::seconds(2));
          wake();
          // mo: release — [harness] publish state to other harness threads.
          woken_.store(true, std::memory_order_release);
        }) {}
  ~UnwindWaker() {
    if (helper_.joinable()) {
      helper_.join();
    }
  }
  UnwindWaker(const UnwindWaker&) = delete;
  UnwindWaker& operator=(const UnwindWaker&) = delete;

  class Guard {
   public:
    explicit Guard(UnwindWaker& w) : w_(w) {}
    ~Guard() {
      // mo: acq_rel — [harness] cross-thread counter/flag RMW.
      if (std::uncaught_exceptions() > 0 &&
          !w_.unwinding_.exchange(true, std::memory_order_acq_rel)) {
        AwaitFlag(w_.woken_, std::chrono::seconds(5));
      }
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    UnwindWaker& w_;
  };

  bool Late() {
    helper_.join();
    return late_;
  }

 private:
  std::atomic<bool> unwinding_{false};
  std::atomic<bool> woken_{false};
  bool late_ = false;
  std::thread helper_;  // last: starts once the flags above exist
};

// Retry-Orig and TMCondVar run only on (or are only tested here on) the STMs.
class WakeDuringUnwindTest : public ::testing::TestWithParam<Backend> {
 protected:
  WakeDuringUnwindTest() : rt_(ConfigFor(GetParam())) {}
  Runtime rt_;
};

// The commit lands before the waiter validates its read orecs, so the
// validation fails and the waiter re-executes without parking.
TEST_P(WakeDuringUnwindTest, RetryOrigWaiterDoesNotPark) {
  TVar<std::uint64_t> cell(0);
  UnwindWaker waker([&] {
    Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(cell, std::uint64_t{1}); });
  });
  Atomically(rt_.sys(), [&](Tx& tx) {
    if (tx.Load(cell) == 0) {
      UnwindWaker::Guard guard(waker);
      tx.RetryOrig();
    }
  });
  EXPECT_FALSE(waker.Late()) << "the waiter parked before its attempt unwound";
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kSleeps), 0u);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kDeschedules), 1u);
}

// The signal posts the waiter's token before the restart loop parks, so the
// park returns at once and the next attempt runs.
TEST_P(WakeDuringUnwindTest, TmCondVarWaiterDoesNotPark) {
  TmCondVar cv(4);
  TVar<std::uint64_t> ready(0);
  UnwindWaker waker([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      tx.Store(ready, std::uint64_t{1});
      tx.CondSignal(cv);
    });
  });
  Atomically(rt_.sys(), [&](Tx& tx) {
    if (tx.Load(ready) == 0) {
      UnwindWaker::Guard guard(waker);
      tx.CondWait(cv);
    }
  });
  EXPECT_FALSE(waker.Late()) << "the waiter parked before its attempt unwound";
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kCondVarWaits), 1u);
}

INSTANTIATE_TEST_SUITE_P(StmBackends, WakeDuringUnwindTest,
                         ::testing::Values(Backend::kEagerStm, Backend::kLazyStm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kEagerStm ? "EagerStm"
                                                                   : "LazyStm";
                         });

// A body that catches the wait's TxRestart and leaves by another exception
// strands the recorded wait; the thread's next transaction must refuse to
// start rather than let a later restart loop sleep on it.
TEST(PendingWaitDeathTest, SwallowedWaitFailsTheNextBegin) {
  struct Escape {};
  EXPECT_DEATH(
      {
        Runtime rt(ConfigFor(Backend::kEagerStm));
        try {
          Atomically(rt.sys(), [&](Tx& tx) {
            try {
              tx.WaitPred(&AlwaysTruePred, WaitArgs{});
            } catch (const TxRestart&) {
              throw Escape{};
            }
          });
        } catch (const Escape&) {
        }
        Atomically(rt.sys(), [](Tx&) {});
      },
      "wait is pending");
}

}  // namespace
}  // namespace tcs
