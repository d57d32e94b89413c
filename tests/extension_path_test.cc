// Regression coverage for the unified timestamp-extension path
// (TmSystem::TryExtendTimestamp): one implementation now serves
//  * plain validation-failure extension on a too-new read (eager AND lazy STM),
//  * the eager OrElse partial-rollback orec release (which must extend — its
//    release bumps publish versions past the transaction's start),
//  * the simulated HTM's buffered-mode branch-line release (opportunistic), and
//  * lazy STM's commit-time validation (write-orec acquisition on a too-new
//    orec, and read-set revalidation) — instead of aborting outright.
// The per-site counters (kExtendOnValidation / kExtendOnOrecRelease /
// kExtendOnCommitValidation) prove the call sites actually funnel through the
// shared path rather than keeping private revalidation loops.
#include <gtest/gtest.h>

#include <functional>
#include <semaphore>
#include <thread>

#include "src/core/runtime.h"
#include "src/core/transaction.h"

namespace tcs {
namespace {

TmConfig ExtConfig(Backend b, bool extension = true) {
  TmConfig cfg;
  cfg.backend = b;
  cfg.timestamp_extension = extension;
  // Some tests park a transaction mid-flight on purpose; commit-time
  // quiescence would deadlock against that.
  cfg.privatization_safety = false;
  cfg.max_threads = 8;
  return cfg;
}

class ValidationExtensionTest : public ::testing::TestWithParam<Backend> {};

// A concurrent commit to an unrelated location makes the next read too new;
// the shared extension must revalidate and salvage it on eager and lazy alike.
TEST_P(ValidationExtensionTest, SalvagesReadAfterUnrelatedCommit) {
  Runtime rt(ExtConfig(GetParam()));
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(2);
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
  EXPECT_GE(s.Get(Counter::kExtendOnValidation), 1u)
      << "validation failure must reach the shared extension path";
  EXPECT_EQ(s.Get(Counter::kExtendOnOrecRelease), 0u);
  EXPECT_EQ(s.Get(Counter::kAborts), 0u);
}

// A commit that touched a location the transaction already read must defeat
// the extension: revalidation fails and the attempt aborts.
TEST_P(ValidationExtensionTest, ConflictingCommitStillAborts) {
  Runtime rt(ExtConfig(GetParam()));
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(2);
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
      }
      (void)tx.Load(y);
      EXPECT_EQ(tx.Load(x), 10u);  // only a post-abort attempt gets here
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
  EXPECT_GE(s.Get(Counter::kExtendOnValidation), 1u)
      << "the failed salvage attempt still goes through the shared path";
  EXPECT_EQ(s.Get(Counter::kTimestampExtensions), 0u)
      << "a defeated extension must not advance the timestamp";
}

INSTANTIATE_TEST_SUITE_P(StmBackends, ValidationExtensionTest,
                         ::testing::Values(Backend::kEagerStm,
                                           Backend::kLazyStm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kEagerStm ? "EagerStm"
                                                                   : "LazyStm";
                         });

// --- lazy commit-time validation extension (ROADMAP follow-up) ---

// Shared scaffolding for the commit-validation trio: a lazy transaction loads
// x, pauses mid-flight while `interleaved` commits, then buffer-writes
// y = x + 10 and commits — so its write orec (and possibly its read of x) is
// stale by commit time.
void RunPausedLazyWriter(Runtime& rt, TVar<std::uint64_t>& x,
                         TVar<std::uint64_t>& y,
                         const std::function<void()>& interleaved) {
  std::binary_semaphore writer_paused{0};
  std::binary_semaphore other_done{0};
  std::thread writer([&] {
    bool paused = false;
    Atomically(rt.sys(), [&](Tx& tx) {
      std::uint64_t a = tx.Load(x);
      if (!paused) {
        paused = true;
        writer_paused.release();
        other_done.acquire();  // let another writer commit mid-transaction
      }
      tx.Store(y, a + 10);  // buffered; orec acquired at commit
    });
  });
  writer_paused.acquire();
  interleaved();
  other_done.release();
  writer.join();
}

// Lazy STM acquires its write orecs only at commit. If another thread
// committed to a to-be-written location in the meantime, the orec is too new
// for this transaction's start — but the buffered write doesn't depend on the
// old value, so the shared extension (revalidate the read set, advance start)
// must salvage the commit instead of aborting outright.
TEST(CommitValidationExtensionTest, LazySalvagesWriteAcquisitionAfterConcurrentCommit) {
  Runtime rt(ExtConfig(Backend::kLazyStm));
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(2);
  RunPausedLazyWriter(rt, x, y, [&] {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(y, std::uint64_t{20}); });
  });

  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kExtendOnCommitValidation), 1u)
      << "commit-time acquisition must reach the shared extension path";
  EXPECT_GE(s.Get(Counter::kTimestampExtensions), 1u);
  EXPECT_EQ(s.Get(Counter::kAborts), 0u)
      << "the extension should have salvaged the commit without an abort";
  EXPECT_EQ(y.UnsafeRead(), 11u);
}

// A concurrent commit that also touched a location this transaction *read*
// must still defeat the commit-time extension: revalidation fails, the
// attempt aborts, and the re-execution observes the new state.
TEST(CommitValidationExtensionTest, LazyCommitExtensionFailsOnRealReadConflict) {
  Runtime rt(ExtConfig(Backend::kLazyStm));
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(2);
  RunPausedLazyWriter(rt, x, y, [&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      tx.Store(x, std::uint64_t{5});  // invalidates the writer's read
      tx.Store(y, std::uint64_t{20});
    });
  });

  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kExtendOnCommitValidation), 1u)
      << "the failed salvage attempt still goes through the shared path";
  EXPECT_GE(s.Get(Counter::kAborts), 1u);
  EXPECT_EQ(s.Get(Counter::kTimestampExtensions), 0u)
      << "a defeated extension must not advance the timestamp";
  EXPECT_EQ(y.UnsafeRead(), 15u) << "the re-execution must see x=5";
}

// With the knob off, the commit-time site must not attempt extension at all.
TEST(CommitValidationExtensionTest, DisabledExtensionStillAbortsOutright) {
  Runtime rt(ExtConfig(Backend::kLazyStm, /*extension=*/false));
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(2);
  RunPausedLazyWriter(rt, x, y, [&] {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(y, std::uint64_t{20}); });
  });

  TxStats s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kExtendOnCommitValidation), 0u);
  EXPECT_GE(s.Get(Counter::kAborts), 1u);
  EXPECT_EQ(y.UnsafeRead(), 11u) << "the retried attempt still lands a+10";
}

// --- eager encounter-time write-orec acquisition extension ---

// Same scaffolding as the lazy trio, but on eager STM the write happens at
// encounter time: the transaction loads x, pauses while `interleaved`
// commits, then stores y = x + 10 in place — so WriteWord meets y's orec
// already committed past its start.
void RunPausedEagerWriter(Runtime& rt, TVar<std::uint64_t>& x,
                          TVar<std::uint64_t>& y,
                          const std::function<void()>& interleaved) {
  std::binary_semaphore writer_paused{0};
  std::binary_semaphore other_done{0};
  std::thread writer([&] {
    bool paused = false;
    Atomically(rt.sys(), [&](Tx& tx) {
      std::uint64_t a = tx.Load(x);
      if (!paused) {
        paused = true;
        writer_paused.release();
        other_done.acquire();  // let another writer commit mid-transaction
      }
      tx.Store(y, a + 10);  // in place; orec acquired right here
    });
  });
  writer_paused.acquire();
  interleaved();
  other_done.release();
  writer.join();
}

// Eager STM used to abort outright when the encounter-time acquisition found
// a too-new orec, even though the blind in-place write doesn't depend on the
// location's old value — the reads-intact case is genuinely salvageable,
// exactly like lazy's commit-time acquisition (which got the fix in PR 4).
TEST(EncounterAcquisitionExtensionTest, EagerSalvagesAcquisitionAfterConcurrentCommit) {
  Runtime rt(ExtConfig(Backend::kEagerStm));
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(2);
  RunPausedEagerWriter(rt, x, y, [&] {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(y, std::uint64_t{20}); });
  });

  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kExtendOnEncounterAcquisition), 1u)
      << "encounter-time acquisition must reach the shared extension path";
  EXPECT_GE(s.Get(Counter::kTimestampExtensions), 1u);
  EXPECT_EQ(s.Get(Counter::kAborts), 0u)
      << "the extension should have salvaged the write without an abort";
  EXPECT_EQ(y.UnsafeRead(), 11u);
}

// A concurrent commit that also touched a location this transaction *read*
// must still defeat the encounter-time extension: revalidation fails, the
// attempt aborts, and the re-execution observes the new state.
TEST(EncounterAcquisitionExtensionTest, EagerExtensionFailsOnRealReadConflict) {
  Runtime rt(ExtConfig(Backend::kEagerStm));
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(2);
  RunPausedEagerWriter(rt, x, y, [&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      tx.Store(x, std::uint64_t{5});  // invalidates the writer's read
      tx.Store(y, std::uint64_t{20});
    });
  });

  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kExtendOnEncounterAcquisition), 1u)
      << "the failed salvage attempt still goes through the shared path";
  EXPECT_GE(s.Get(Counter::kAborts), 1u);
  EXPECT_EQ(s.Get(Counter::kTimestampExtensions), 0u)
      << "a defeated extension must not advance the timestamp";
  EXPECT_EQ(y.UnsafeRead(), 15u) << "the re-execution must see x=5";
}

// With the knob off, the encounter-time site must not attempt extension.
TEST(EncounterAcquisitionExtensionTest, DisabledExtensionStillAbortsOutright) {
  Runtime rt(ExtConfig(Backend::kEagerStm, /*extension=*/false));
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(2);
  RunPausedEagerWriter(rt, x, y, [&] {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(y, std::uint64_t{20}); });
  });

  TxStats s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kExtendOnEncounterAcquisition), 0u);
  EXPECT_GE(s.Get(Counter::kAborts), 1u);
  EXPECT_EQ(y.UnsafeRead(), 11u) << "the retried attempt still lands a+10";
}

// --- extension after OrElse orec release ---

// Abandoning a branch that blind-wrote releases its orecs at prev+1, which is
// newer than the transaction's start — the shared extension is what keeps the
// surviving branch able to re-read and re-write those locations.
TEST(OrecReleaseExtensionTest, EagerReleaseExtendsThroughSharedPath) {
  // Note: extension on the release path is correctness-relevant, so it runs
  // even with cfg.timestamp_extension = false.
  Runtime rt(ExtConfig(Backend::kEagerStm, /*extension=*/false));
  TVar<std::uint64_t> cell(5);
  Atomically(rt.sys(), [&](Tx& tx) {
    tx.OrElse(
        [&](Tx& t) {
          t.Store(cell, std::uint64_t{77});  // blind write, then abandon
          t.Retry();
        },
        [&](Tx& t) {
          EXPECT_EQ(t.Load(cell), 5u);
          t.Store(cell, std::uint64_t{6});
        });
  });
  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kOrElseOrecReleases), 1u);
  EXPECT_GE(s.Get(Counter::kExtendOnOrecRelease), 1u)
      << "the orec release must extend through the shared path";
  EXPECT_GE(s.Get(Counter::kTimestampExtensions), 1u);
  EXPECT_EQ(cell.UnsafeRead(), 6u);
}

// Simulated HTM, buffered (hardware) mode: the branch's lines release at their
// exact pre-acquisition version, and with timestamp_extension on, the release
// also extends opportunistically through the same shared path.
TEST(OrecReleaseExtensionTest, SimHtmBufferedReleaseUsesSharedPath) {
  Runtime rt(ExtConfig(Backend::kSimHtm));
  TVar<std::uint64_t> cell(5);
  TVar<std::uint64_t> other(0);
  Atomically(rt.sys(), [&](Tx& tx) {
    tx.OrElse(
        [&](Tx& t) {
          t.Store(cell, std::uint64_t{77});
          t.Retry();
        },
        [&](Tx& t) {
          EXPECT_EQ(t.Load(cell), 5u);
          t.Store(other, std::uint64_t{1});
        });
  });
  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kOrElseOrecReleases), 1u);
  EXPECT_GE(s.Get(Counter::kExtendOnOrecRelease), 1u);
  EXPECT_EQ(cell.UnsafeRead(), 5u);
  EXPECT_EQ(other.UnsafeRead(), 1u);
}

// --- both call sites, one path ---

// One run in which a transaction extends from the orec-release site and
// another extends from the validation site: both per-site counters tick, and
// the successes land in the one shared kTimestampExtensions tally — the
// counter assertion that the call sites really share TryExtendTimestamp.
TEST(SharedExtensionPathTest, BothCallSitesHitTheSharedPath) {
  Runtime rt(ExtConfig(Backend::kEagerStm));
  TVar<std::uint64_t> cell(5);
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(2);

  // Site 1: OrElse orec release.
  Atomically(rt.sys(), [&](Tx& tx) {
    tx.OrElse(
        [&](Tx& t) {
          t.Store(cell, std::uint64_t{77});
          t.Retry();
        },
        [&](Tx& t) { t.Store(cell, std::uint64_t{6}); });
  });

  // Site 2: validation-failure extension.
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
  EXPECT_GE(s.Get(Counter::kExtendOnOrecRelease), 1u);
  EXPECT_GE(s.Get(Counter::kExtendOnValidation), 1u);
  EXPECT_GE(s.Get(Counter::kTimestampExtensions), 2u)
      << "both sites must succeed through the one shared implementation";
}

}  // namespace
}  // namespace tcs
