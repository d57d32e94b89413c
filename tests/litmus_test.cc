// Litmus-shaped regression tests for the relaxed happens-before edges in the
// glossary (src/condsync/wake_index.h). Each test pins one edge to the
// classic weak-memory shape its argument is phrased in — message passing
// (MP), publication, and store buffering (SB) — so any future weakening of an
// endpoint ordering has a dedicated failing shape, natively and under TSan.
//
// These are *pinning* tests: on strong hardware (x86) most reorderings the
// edges forbid cannot manifest anyway, but TSan checks the happens-before
// reasoning itself (a payload read without the edge's synchronization is a
// reported race), and on weaker ISAs the shapes fail outright if an edge's
// release/acquire pairing is dropped.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/condsync/wake_index.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/tm/orec_table.h"
#include "src/tm/version_clock.h"

// mo-edge: [harness] (minimal: release/acquire) — test/bench harness
// coordination: flags and counters published by worker threads and
// observed by the test body or sibling threads (often additionally
// ordered by thread join). acquire/release is a uniform upper bound
// chosen over per-site minimality; none of these sites needs seq_cst
// totality.

namespace tcs {
namespace {

// --------------------------------------------------------------------------
// [wake-publish] — message passing through the bitmap + clock chain.
//
// Waiter: plain payload write → release bitmap insert → clock RMW (its
// registration commit). Writer: clock RMW → bitmap scan. The edge's claim:
// whenever the writer's RMW serializes after the waiter's in the [clock-chain]
// release sequence, the scan sees the bit, and seeing the bit (acquire read of
// the release insert) makes the payload visible.
// --------------------------------------------------------------------------
TEST(LitmusWakePublishTest, InsertPublishesThroughClockChain) {
  constexpr int kRounds = 300;
  constexpr int kTid = 3;
  WakeIndex idx(/*max_threads=*/64, /*num_shards=*/64);
  VersionClock clock;
  Orec o;
  const Orec* orecs[1] = {&o};
  for (int round = 0; round < kRounds; ++round) {
    std::uint64_t payload = 0;        // plain: published by the edge
    std::uint64_t end_waiter = 0;     // read after join only
    std::uint64_t end_writer = 0;
    bool seen = false;
    std::uint64_t seen_payload = 0;
    std::thread waiter([&] {
      payload = static_cast<std::uint64_t>(round) + 1;
      idx.AddIndexed(kTid, orecs, 1);
      end_waiter = clock.Increment();
    });
    std::thread writer([&] {
      end_writer = clock.Increment();
      std::vector<std::uint64_t> shard_set(
          static_cast<std::size_t>(idx.shard_words()));
      idx.BuildShardSet(orecs, 1, shard_set.data());
      idx.ForEachCandidateIn(shard_set.data(), [&](int tid) {
        if (tid == kTid) {
          seen = true;
          seen_payload = payload;  // race-free iff [wake-publish] holds
        }
        return true;
      });
    });
    waiter.join();
    writer.join();
    if (end_writer > end_waiter) {
      EXPECT_TRUE(seen) << "writer serialized after registration (commit "
                        << end_writer << " > " << end_waiter
                        << ") but missed the bitmap bit — lost wakeup shape";
      EXPECT_EQ(seen_payload, static_cast<std::uint64_t>(round) + 1)
          << "bit visible but pre-insert payload not published";
    }
    idx.Remove(kTid);
  }
  EXPECT_TRUE(idx.Empty());
}

// --------------------------------------------------------------------------
// [orec-publish] — publication: a committer's plain data write-back followed
// by the orec word's release store of an unlocked version; any acquire load
// that observes the new version must also observe the data.
// --------------------------------------------------------------------------
TEST(LitmusOrecPublishTest, ReleaseVersionStorePublishesData) {
  constexpr int kRounds = 300;
  for (int round = 0; round < kRounds; ++round) {
    Orec o;
    std::uint64_t data = 0;  // plain: the "write-back"
    std::uint64_t observed = 0;
    bool saw_version = false;
    std::thread committer([&] {
      data = 42;
      // mo: release — [orec-publish]: the unlocked-version store publishes
      // the plain write-back above, exactly as a commit's orec release does.
      o.word.store(Orec::MakeVersion(1), std::memory_order_release);
    });
    std::thread reader([&] {
      // mo: acquire — [orec-publish]: samples the orec word like a
      // transactional read's pre/post-validation load.
      std::uint64_t w = o.word.load(std::memory_order_acquire);
      if (!Orec::IsLocked(w) && Orec::Version(w) == 1) {
        saw_version = true;
        observed = data;  // race-free iff [orec-publish] holds
      }
    });
    committer.join();
    reader.join();
    if (saw_version) {
      EXPECT_EQ(observed, 42u)
          << "orec version visible but write-back not published";
    }
  }
}

// --------------------------------------------------------------------------
// [retry-dekker] — store buffering: the fence-anchored exclusion behind
// RetryOrig. Waiter: raise count (relaxed), seq_cst fence, read orec.
// Writer: release orec, seq_cst fence, read count. Forbidden outcome: both
// read the pre-update values (waiter validates stale AND writer sees no
// waiter → lost wakeup). The model mirrors WaitForOverlap/the commit path in
// tm_system.cc op for op.
// --------------------------------------------------------------------------
TEST(LitmusRetryDekkerTest, FencesExcludeStoreBufferingOutcome) {
  constexpr int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> orec{0};
    std::uint64_t waiter_saw_orec = ~std::uint64_t{0};
    std::uint64_t writer_saw_count = ~std::uint64_t{0};
    std::thread waiter([&] {
      // mo: relaxed — [retry-dekker] rider: the raise is anchored by the
      // fence below, as in RetryOrigRegistry::WaitForOverlap.
      count.fetch_add(1, std::memory_order_relaxed);
      // mo: seq_cst fence — [retry-dekker] waiter leg.
      // seq_cst-required: store-buffering exclusion — W(count)/R(orec) here
      // vs the writer's W(orec)/R(count); acquire/release fences cannot
      // forbid both sides reading the pre-update values.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      // mo: acquire — [orec-publish], riding the [retry-dekker] fences: the
      // validation load.
      waiter_saw_orec = orec.load(std::memory_order_acquire);
    });
    std::thread writer([&] {
      // mo: release — [orec-publish]: the commit's orec release.
      orec.store(1, std::memory_order_release);
      // mo: seq_cst fence — [retry-dekker] writer leg.
      // seq_cst-required: same store-buffering exclusion as the waiter leg;
      // mirrors the commit-side fence in tm_system.cc.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      // mo: relaxed — [retry-dekker] rider: the HasWaiters peek.
      writer_saw_count = count.load(std::memory_order_relaxed);
    });
    waiter.join();
    writer.join();
    EXPECT_FALSE(waiter_saw_orec == 0 && writer_saw_count == 0)
        << "both sides read pre-update values: the lost-wakeup SB outcome "
           "the [retry-dekker] fences forbid";
  }
}

// --------------------------------------------------------------------------
// End-to-end publication litmus on every backend: a waiter whose predicate is
// false retries; a writer then commits the predicate true. The wakeup must
// arrive (RetryFor is a bounded safety net, not the expected path). This is
// the full-stack shape the [wake-publish] + [clock-chain] relaxation must
// keep intact on eager STM, lazy STM, and sim-HTM alike.
// --------------------------------------------------------------------------
class LitmusBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(LitmusBackendTest, CommitAfterRegistrationIsNeverLost) {
  TmConfig cfg;
  cfg.backend = GetParam();
  cfg.orec_table_log2 = 12;
  cfg.max_threads = 16;
  Runtime rt(cfg);
  constexpr int kRounds = 25;
  std::uint64_t cell = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t target = static_cast<std::uint64_t>(round) + 1;
    std::atomic<bool> timed_out{false};
    std::thread waiter([&] {
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(cell) < target) {
          if (tx.RetryFor(std::chrono::seconds(20)) ==
              WaitResult::kTimedOut) {
            // mo: release — [harness] publish the failure to the test body.
            timed_out.store(true, std::memory_order_release);
          }
        }
      });
    });
    // Wait until the waiter is observably asleep so the commit below races
    // the registration path, not thread startup.
    for (int i = 0; i < 100000; ++i) {
      if (rt.AggregateStats().Get(Counter::kSleeps) >=
          static_cast<std::uint64_t>(round) + 1) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, target); });
    waiter.join();
    // mo: acquire — [harness] observe worker-published state.
    ASSERT_FALSE(timed_out.load(std::memory_order_acquire))
        << "lost wakeup on " << BackendName(GetParam()) << " round " << round;
  }
}

// --------------------------------------------------------------------------
// [quiesce-dekker] + the registered-tid scan bound: a thread registers and
// begins its first transaction while a committer's quiescence scan runs. The
// scan stops at the domain's bound, which the newcomer raises at
// registration, before its first seq_cst SetActive. Allowed: the scan covers
// the newcomer and waits for it, or the newcomer's first read sees the
// committed orec (and value). Forbidden: the newcomer read the pre-commit
// value and the commit returned while that transaction was still open — the
// scan skipped a straggler, and privatized memory could be reclaimed under
// it. Each round uses a fresh domain so the registration really raises the
// bound (a recycled tid would already sit below it).
// --------------------------------------------------------------------------
TEST_P(LitmusBackendTest, RegistrationRacingAScanIsWaitedOnOrSeesTheCommit) {
  constexpr int kRounds = 300;
  enum : int { kNotYet = 0, kSawOld = 1, kLeaving = 2 };
  auto spin_for = [](std::chrono::nanoseconds d) {
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  SplitMix64 rng(0x9E3779B97F4A7C15ULL + static_cast<int>(GetParam()));
  int saw_old = 0;
  for (int round = 0; round < kRounds; ++round) {
    TmConfig cfg;
    cfg.backend = GetParam();
    cfg.orec_table_log2 = 10;
    cfg.max_threads = 8;
    Runtime rt(cfg);
    struct alignas(64) Cell {
      std::uint64_t v = 0;
    };
    Cell cell;
    std::atomic<int> newcomer{kNotYet};
    std::atomic<bool> committer_ready{false};
    std::atomic<bool> go{false};
    int at_return = -1;     // read after join only
    bool read_old = false;  // the newcomer's committed execution; after join
    const auto commit_delay =
        std::chrono::nanoseconds(rng.NextBounded(20000));
    std::thread committer([&] {
      // Registers (tid 0) before the newcomer exists.
      Atomically(rt.sys(), [&](Tx& tx) { (void)tx.Load(cell.v); });
      // mo: release — [harness] publish registration to the test body.
      committer_ready.store(true, std::memory_order_release);
      // mo: acquire — [harness] start line shared with the newcomer.
      while (!go.load(std::memory_order_acquire)) {
      }
      spin_for(commit_delay);
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell.v, std::uint64_t{1}); });
      // mo: acquire — [harness] where the newcomer's transaction stood when
      // this commit's quiescence scan let it return.
      at_return = newcomer.load(std::memory_order_acquire);
    });
    // mo: acquire — [harness] observe worker-published state.
    while (!committer_ready.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::thread fresh([&] {
      // mo: acquire — [harness] start line shared with the committer.
      while (!go.load(std::memory_order_acquire)) {
      }
      // First use of the domain on this thread: registers, then begins.
      Atomically(rt.sys(), [&](Tx& tx) {
        read_old = tx.Load(cell.v) == 0;
        if (read_old) {
          // mo: release — [harness] the open transaction read the old value.
          newcomer.store(kSawOld, std::memory_order_release);
          spin_for(std::chrono::microseconds(200));
        }
        // mo: release — [harness] sequenced before this transaction's commit
        // (its SetInactive), which a waiting scan acquires.
        newcomer.store(kLeaving, std::memory_order_release);
      });
    });
    // mo: release — [harness] start both sides.
    go.store(true, std::memory_order_release);
    committer.join();
    fresh.join();
    ASSERT_NE(at_return, kSawOld)
        << BackendName(GetParam()) << " round " << round
        << ": the commit returned while a newly registered thread's older "
           "transaction was still open — the scan skipped it";
    saw_old += read_old ? 1 : 0;
  }
  // Coverage: how many rounds the newcomer began before the commit, i.e. the
  // rounds where only the scan stood between it and a reclaimed read.
  RecordProperty("rounds_newcomer_read_old_value", saw_old);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, LitmusBackendTest,
    ::testing::Values(Backend::kEagerStm, Backend::kLazyStm,
                      Backend::kSimHtm),
    [](const ::testing::TestParamInfo<Backend>& info) {
      std::string out = BackendName(info.param);
      for (char& c : out) {
        if (c == '-') {
          c = '_';
        }
      }
      return out;
    });

}  // namespace
}  // namespace tcs
