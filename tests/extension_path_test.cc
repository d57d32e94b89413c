// Too-new accesses and the one timestamp extension.
//
// STM validation follows Appendix A's conservative rule: an access that meets
// an orec committed past the transaction's start aborts the attempt, and the
// retry runs against the committed state. Each such site keeps a test here:
// eager and lazy reads, eager STM's encounter-time write acquisition and lazy
// STM's commit-time write acquisition. The one timestamp extension
// (TmSystem::TryExtendTimestamp) serves eager STM's OrElse orec release, whose
// prev+1 release bumps would otherwise abort the surviving branch.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "tests/parked_tx.h"

namespace tcs {
namespace {

TmConfig ConfigFor(Backend b) {
  TmConfig cfg;
  cfg.backend = b;
  cfg.max_threads = 8;
  return cfg;
}

std::uint64_t Aborts(Runtime& rt, AbortCause cause) {
  return rt.sys().SnapshotObs().abort_causes[static_cast<int>(cause)];
}

std::string StmName(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kEagerStm ? "EagerStm" : "LazyStm";
}

class TooNewReadTest : public ::testing::TestWithParam<Backend> {};

// A concurrent commit to an unrelated location makes the next read too new:
// the read aborts rather than extending, and the retry reads the new value.
TEST_P(TooNewReadTest, UnrelatedCommitAbortsTheRead) {
  Runtime rt(ConfigFor(GetParam()));
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(2);
  std::pair<std::uint64_t, std::uint64_t> seen;
  RunWithParkedTx(
      rt,
      [&](Tx& tx, const ParkFn& park) {
        std::uint64_t a = tx.Load(x);
        park();
        seen = {a, tx.Load(y)};
      },
      [&](Tx& tx) { tx.Store(y, std::uint64_t{20}); });
  EXPECT_EQ(seen.first, 1u);
  EXPECT_EQ(seen.second, 20u);
  EXPECT_GE(Aborts(rt, AbortCause::kReadValidation), 1u);
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kTimestampExtensions), 0u);
}

// The commit also overwrote a location the transaction had already read: the
// attempt aborts, and the re-execution observes the new x.
TEST_P(TooNewReadTest, ConflictingCommitStillAborts) {
  Runtime rt(ConfigFor(GetParam()));
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(2);
  std::uint64_t seen_x = 0;
  RunWithParkedTx(
      rt,
      [&](Tx& tx, const ParkFn& park) {
        (void)tx.Load(x);
        park();
        (void)tx.Load(y);
        seen_x = tx.Load(x);  // only a post-abort attempt gets here
      },
      [&](Tx& tx) {
        tx.Store(x, std::uint64_t{10});
        tx.Store(y, std::uint64_t{20});
      });
  EXPECT_EQ(seen_x, 10u);
  EXPECT_GE(rt.AggregateStats().Get(Counter::kAborts), 1u);
}

INSTANTIATE_TEST_SUITE_P(StmBackends, TooNewReadTest,
                         ::testing::Values(Backend::kEagerStm,
                                           Backend::kLazyStm),
                         StmName);

// A transaction loads x, parks while another transaction commits, then
// stores y = x + 10. Eager STM acquires y's orec at that store (encounter
// time), lazy STM at commit; either way the orec is newer than the
// transaction's start. The write does not depend on y's old value, but the
// conservative rule aborts anyway, at that site.
class TooNewWriteTest : public ::testing::TestWithParam<Backend> {
 protected:
  TooNewWriteTest() : rt_(ConfigFor(GetParam())), x_(1), y_(2) {}

  AbortCause AcquisitionSite() const {
    return GetParam() == Backend::kEagerStm ? AbortCause::kEncounterAcquisition
                                            : AbortCause::kCommitValidation;
  }

  void RunParkedWriter(const std::function<void(Tx&)>& interfere) {
    RunWithParkedTx(
        rt_,
        [&](Tx& tx, const ParkFn& park) {
          std::uint64_t a = tx.Load(x_);
          park();
          tx.Store(y_, a + 10);
        },
        interfere);
  }

  Runtime rt_;
  TVar<std::uint64_t> x_;
  TVar<std::uint64_t> y_;
};

TEST_P(TooNewWriteTest, UnrelatedCommitAbortsTheAcquisition) {
  RunParkedWriter([&](Tx& tx) { tx.Store(y_, std::uint64_t{20}); });
  EXPECT_GE(Aborts(rt_, AcquisitionSite()), 1u);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kTimestampExtensions), 0u);
  EXPECT_EQ(y_.UnsafeRead(), 11u) << "the retried attempt lands a+10";
}

// The commit also overwrote x, which the transaction read: the re-execution
// must see x = 5.
TEST_P(TooNewWriteTest, ReadConflictRetrySeesNewValue) {
  RunParkedWriter([&](Tx& tx) {
    tx.Store(x_, std::uint64_t{5});
    tx.Store(y_, std::uint64_t{20});
  });
  EXPECT_GE(Aborts(rt_, AcquisitionSite()), 1u);
  EXPECT_EQ(y_.UnsafeRead(), 15u) << "the re-execution must see x=5";
}

INSTANTIATE_TEST_SUITE_P(StmBackends, TooNewWriteTest,
                         ::testing::Values(Backend::kEagerStm,
                                           Backend::kLazyStm),
                         StmName);

// --- the OrElse orec release ---

// Abandoning a branch that blind-wrote releases its orecs at prev+1, which is
// newer than the transaction's start — the extension is what keeps the
// surviving branch able to re-read and re-write those locations.
TEST(OrecReleaseExtensionTest, EagerReleaseExtendsThroughSharedPath) {
  Runtime rt(ConfigFor(Backend::kEagerStm));
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
  EXPECT_GE(s.Get(Counter::kTimestampExtensions), 1u)
      << "the orec release must extend the timestamp";
  EXPECT_EQ(cell.UnsafeRead(), 6u);
}

// Simulated HTM, buffered (hardware) mode: the branch's lines release at their
// exact pre-acquisition version, which leaves the transaction consistent, so
// nothing is extended.
TEST(OrecReleaseExtensionTest, SimHtmBufferedReleaseNeedsNoExtension) {
  Runtime rt(ConfigFor(Backend::kSimHtm));
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
  EXPECT_EQ(s.Get(Counter::kTimestampExtensions), 0u);
  EXPECT_EQ(cell.UnsafeRead(), 5u);
  EXPECT_EQ(other.UnsafeRead(), 1u);
}

}  // namespace
}  // namespace tcs
