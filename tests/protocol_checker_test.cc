// Seeded-violation tests for the dynamic TM protocol checker: drive the hook
// API directly with sequences the real runtime must never produce and assert
// the corresponding protocol fires (and clean sequences stay silent). The
// checker class is always compiled; the TCS_PROTOCOL_CHECKS-gated section at
// the bottom additionally runs real transactions on every backend and asserts
// the instrumented runtime reports zero violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/core/tvar.h"
#include "src/tm/orec_table.h"
#include "src/tm/protocol_checker.h"
#include "src/tm/quiesce.h"

namespace tcs {
namespace {

// Collects violations instead of aborting, so seeded violations are assertable.
struct Recorder {
  std::vector<std::string> protocols;

  static void Handler(void* ctx, const char* protocol, const char* detail) {
    (void)detail;
    static_cast<Recorder*>(ctx)->protocols.emplace_back(protocol);
  }

  int Count(const std::string& protocol) const {
    return static_cast<int>(
        std::count(protocols.begin(), protocols.end(), protocol));
  }
};

class ProtocolCheckerTest : public ::testing::Test {
 protected:
  static constexpr int kMaxThreads = 8;

  ProtocolCheckerTest() : orecs_(4, 3), checker_(orecs_, kMaxThreads) {
    checker_.SetFailureHandler(&Recorder::Handler, &rec_);
  }

  Orec* orec() { return &orecs_.For(reinterpret_cast<void*>(0x1000)); }

  OrecTable orecs_;
  Recorder rec_;
  ProtocolChecker checker_;
};

// --- orec lock/release protocol ---

TEST_F(ProtocolCheckerTest, CleanCommitAndAbortSequencesAreSilent) {
  Orec* o = orec();
  checker_.OnOrecAcquire(o, 0, 0);
  checker_.OnOrecRelease(o, 0, 5, ProtocolChecker::ReleaseKind::kCommit);
  checker_.OnOrecAcquire(o, 1, 5);
  checker_.OnOrecRelease(o, 1, 6, ProtocolChecker::ReleaseKind::kAbortBump);
  checker_.OnOrecAcquire(o, 2, 6);
  checker_.OnOrecRelease(o, 2, 6, ProtocolChecker::ReleaseKind::kAbortExact);
  EXPECT_TRUE(rec_.protocols.empty());
  EXPECT_EQ(checker_.violations(), 0u);
}

TEST_F(ProtocolCheckerTest, CommitReleaseMustExceedPreAcquisitionVersion) {
  Orec* o = orec();
  checker_.OnOrecAcquire(o, 0, 0);
  checker_.OnOrecRelease(o, 0, 3, ProtocolChecker::ReleaseKind::kCommit);
  checker_.OnOrecAcquire(o, 0, 3);
  // Re-publishing the pre-acquisition version as a "commit" is torn state.
  checker_.OnOrecRelease(o, 0, 3, ProtocolChecker::ReleaseKind::kCommit);
  EXPECT_EQ(rec_.Count("orec-version"), 1);
}

TEST_F(ProtocolCheckerTest, VersionRegressionFires) {
  Orec* o = orec();
  checker_.OnOrecAcquire(o, 0, 0);
  checker_.OnOrecRelease(o, 0, 5, ProtocolChecker::ReleaseKind::kCommit);
  checker_.OnOrecAcquire(o, 1, 5);
  checker_.OnOrecRelease(o, 1, 4, ProtocolChecker::ReleaseKind::kCommit);
  EXPECT_GE(rec_.Count("orec-version"), 1);
}

TEST_F(ProtocolCheckerTest, AbortBumpMustBeExactlyPrevPlusOne) {
  Orec* o = orec();
  checker_.OnOrecAcquire(o, 0, 0);
  checker_.OnOrecRelease(o, 0, 2, ProtocolChecker::ReleaseKind::kAbortBump);
  EXPECT_EQ(rec_.Count("orec-version"), 1);
}

TEST_F(ProtocolCheckerTest, AbortExactMustRestorePrev) {
  Orec* o = orec();
  checker_.OnOrecAcquire(o, 0, 0);
  checker_.OnOrecRelease(o, 0, 1, ProtocolChecker::ReleaseKind::kAbortExact);
  EXPECT_EQ(rec_.Count("orec-version"), 1);
}

TEST_F(ProtocolCheckerTest, NonOwnerReleaseFires) {
  Orec* o = orec();
  checker_.OnOrecAcquire(o, 0, 0);
  checker_.OnOrecRelease(o, 1, 5, ProtocolChecker::ReleaseKind::kCommit);
  EXPECT_EQ(rec_.Count("orec-lock"), 1);
}

TEST_F(ProtocolCheckerTest, DoubleAcquireFires) {
  Orec* o = orec();
  checker_.OnOrecAcquire(o, 0, 0);
  checker_.OnOrecAcquire(o, 1, 0);
  EXPECT_EQ(rec_.Count("orec-lock"), 1);
}

TEST_F(ProtocolCheckerTest, AcquireAtStaleVersionFires) {
  Orec* o = orec();
  checker_.OnOrecAcquire(o, 0, 0);
  checker_.OnOrecRelease(o, 0, 5, ProtocolChecker::ReleaseKind::kCommit);
  // Claiming the CAS saw version 3 contradicts the shadow (last release: 5) —
  // either the release was unhooked or the orec word was torn.
  checker_.OnOrecAcquire(o, 1, 3);
  EXPECT_EQ(rec_.Count("orec-version"), 1);
}

// --- global-clock monotonicity ---

TEST_F(ProtocolCheckerTest, ClockRegressionFiresPerThread) {
  checker_.OnClockObserved(0, 10);
  checker_.OnClockObserved(1, 5);  // other thread: independent history, fine
  EXPECT_TRUE(rec_.protocols.empty());
  checker_.OnClockObserved(0, 9);
  EXPECT_EQ(rec_.Count("clock"), 1);
}

TEST_F(ProtocolCheckerTest, BackwardsTimestampExtensionFires) {
  checker_.OnStartAdvanced(0, 10, 12);
  EXPECT_TRUE(rec_.protocols.empty());
  // Fires once for the backwards move and once more when the regressed value
  // is fed through the per-thread clock history.
  checker_.OnStartAdvanced(0, 12, 7);
  EXPECT_GE(rec_.Count("clock"), 1);
}

TEST_F(ProtocolCheckerTest, OutOfRangeTidIsReportedNotCrashed) {
  checker_.OnClockObserved(kMaxThreads + 5, 1);
  EXPECT_EQ(rec_.Count("clock"), 1);
}

// --- WakeIndex registration balance ---

TEST_F(ProtocolCheckerTest, BalancedWakeRegistrationIsSilent) {
  checker_.OnWakeRegister(0, /*indexed=*/true);
  checker_.OnWakeDeregister(0);
  checker_.OnWakeRegister(0, /*indexed=*/false);
  checker_.OnWakeDeregister(0);
  EXPECT_TRUE(rec_.protocols.empty());
}

TEST_F(ProtocolCheckerTest, DoubleRegisterFires) {
  checker_.OnWakeRegister(0, true);
  checker_.OnWakeRegister(0, false);
  EXPECT_EQ(rec_.Count("wake-index"), 1);
}

TEST_F(ProtocolCheckerTest, UnbalancedRemoveFires) {
  checker_.OnWakeDeregister(3);
  EXPECT_EQ(rec_.Count("wake-index"), 1);
}

TEST_F(ProtocolCheckerTest, CrossThreadRemoveViolatesOwnerContract) {
  checker_.OnWakeRegister(0, true);
  std::thread other([&] { checker_.OnWakeDeregister(0); });
  other.join();
  EXPECT_EQ(rec_.Count("wake-index"), 1);
}

// --- wake claim/post pairing ---

TEST_F(ProtocolCheckerTest, ClaimThenPostIsSilent) {
  checker_.OnWakeClaimCommitted(2);
  checker_.OnWakePost(2);
  checker_.OnWakeClaimCommitted(2);
  checker_.OnWakePost(2);
  EXPECT_TRUE(rec_.protocols.empty());
}

TEST_F(ProtocolCheckerTest, PostWithoutClaimIsADoublePost) {
  checker_.OnWakeClaimCommitted(2);
  checker_.OnWakePost(2);
  checker_.OnWakePost(2);
  EXPECT_EQ(rec_.Count("wake-claim"), 1);
}

TEST_F(ProtocolCheckerTest, DoubleClaimBeforePostFires) {
  checker_.OnWakeClaimCommitted(2);
  checker_.OnWakeClaimCommitted(2);
  EXPECT_EQ(rec_.Count("wake-claim"), 1);
}

// --- quiescence scan bound ---

TEST_F(ProtocolCheckerTest, QuiesceSlotsBelowTheBoundAreSilent) {
  checker_.OnQuiesceActive(0, 1);
  checker_.OnQuiesceActive(4, 5);
  checker_.OnQuiesceActive(0, 5);  // a recycled low tid
  EXPECT_TRUE(rec_.protocols.empty());
}

// Seeded violation: a slot published at or above the bound is one no writer
// commit's scan visits — a missed bound raise.
TEST_F(ProtocolCheckerTest, QuiesceSlotAtOrAboveTheBoundFires) {
  checker_.OnQuiesceActive(3, 3);
  EXPECT_EQ(rec_.Count("quiesce-bound"), 1);
  checker_.OnQuiesceActive(7, 2);
  EXPECT_EQ(rec_.Count("quiesce-bound"), 2);
}

// --- segment publication balance ---

// Seeded violation: a second publication of one index means a losing racer
// reported itself or overwrote the winner's directory entry.
TEST_F(ProtocolCheckerTest, SegmentPublishedTwiceFires) {
  checker_.OnSegmentPublished(0);
  EXPECT_TRUE(rec_.protocols.empty());
  checker_.OnSegmentPublished(0);
  EXPECT_EQ(rec_.Count("segment-publish"), 1);
}

// Seeded violation: kMaxThreads tids fit in segment 0, so index 1 (or a
// negative one) lies outside the index's directory.
TEST_F(ProtocolCheckerTest, SegmentIndexOutOfRangeFires) {
  checker_.OnSegmentPublished(1);
  EXPECT_EQ(rec_.Count("segment-publish"), 1);
  checker_.OnSegmentPublished(-1);
  EXPECT_EQ(rec_.Count("segment-publish"), 2);
}

#if TCS_PROTOCOL_CHECKS
// The same seeded violation through a real table: SetActive on a tid that was
// never registered reports it.
TEST_F(ProtocolCheckerTest, UnregisteredSetActiveFiresThroughTheTable) {
  QuiesceTable q(kMaxThreads);
  q.AttachProtocolChecker(&checker_);
  q.Register(0);
  q.SetActive(0, 1);
  q.SetInactive(0);
  EXPECT_TRUE(rec_.protocols.empty());
  q.SetActive(1, 1);  // tid 1 skipped Register
  q.SetInactive(1);
  EXPECT_EQ(rec_.Count("quiesce-bound"), 1);
}
#endif

TEST_F(ProtocolCheckerTest, ViolationCounterTracksFailures) {
  checker_.OnWakeDeregister(0);
  checker_.OnWakePost(0);
  EXPECT_EQ(checker_.violations(), 2u);
}

#if TCS_PROTOCOL_CHECKS
// Integration: with the runtime compiled with hooks, real transactional loads
// (commits, aborts, Retry sleeps/wakeups, OrElse) must produce ZERO protocol
// violations on every backend. The default failure handler would abort the
// process, so simply finishing is already the assertion; the counter check
// documents it.

TmConfig CheckedConfig(Backend b) {
  TmConfig cfg;
  cfg.backend = b;
  cfg.orec_table_log2 = 10;
  cfg.max_threads = 16;
  return cfg;
}

class ProtocolCheckedRuntimeTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ProtocolCheckedRuntimeTest, RealWorkloadProducesNoViolations) {
  Runtime rt(CheckedConfig(GetParam()));
  TVar<std::uint64_t> counter{0};
  TVar<std::uint64_t> flag{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        Atomically(rt.sys(), [&](Tx& tx) {
          tx.Store(counter, tx.Load(counter) + 1);
        });
      }
    });
  }
  // A waiter that sleeps through the wake path while writers churn.
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.Retry();
      }
    });
  });
  for (auto& th : threads) {
    th.join();
  }
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();

  EXPECT_EQ(rt.sys().ProtocolViolations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ProtocolCheckedRuntimeTest,
                         ::testing::Values(Backend::kEagerStm,
                                           Backend::kLazyStm,
                                           Backend::kSimHtm),
                         [](const auto& info) {
                           switch (info.param) {
                             case Backend::kEagerStm:
                               return "Eager";
                             case Backend::kLazyStm:
                               return "Lazy";
                             default:
                               return "SimHtm";
                           }
                         });
#endif  // TCS_PROTOCOL_CHECKS

}  // namespace
}  // namespace tcs
