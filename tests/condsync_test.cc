// Behavioral tests for the condition-synchronization mechanisms: Retry (Alg. 5),
// Await (Alg. 6), WaitPred (Alg. 7), Deschedule's lost-wakeup window, Retry-Orig
// (Alg. 1), TMCondVar (atomicity break), and the Restart strawman — across all
// three TM backends. Assertions use the runtime's event counters (sleeps, wakeups,
// wake checks) rather than timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
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

}  // namespace
}  // namespace tcs
