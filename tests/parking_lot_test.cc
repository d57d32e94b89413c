// ParkingLot protocol tests, run on both blocking backends (futex and the
// mutex+condvar pool): exact token accounting when posts race parks at
// randomized offsets (wake vs timeout tokens, stale epochs, the timeout
// drain), more blocked spots than the pool has buckets, the sleeper bit
// staying clear when a post lands during the spin, and the spin gate closing
// after long waits and re-opening after short ones.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/parking_lot.h"
#include "src/common/random.h"

// mo-edge: [harness] (minimal: release/acquire) — test harness coordination:
// counters and flags published by one thread and observed by another (often
// additionally ordered by thread join or a std::barrier). acquire/release is
// a uniform upper bound; none of these sites needs seq_cst totality.

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TCS_PARKING_TSAN 1
#endif
#endif
#if !defined(TCS_PARKING_TSAN) && defined(__SANITIZE_THREAD__)
#define TCS_PARKING_TSAN 1
#endif

namespace tcs {
namespace {

using Clock = std::chrono::steady_clock;

#if defined(TCS_PARKING_TSAN)
constexpr int kRounds = 300;
#else
constexpr int kRounds = 3000;
#endif

constexpr std::uint32_t kTokenBits =
    ParkingLot::kWakeToken | ParkingLot::kTimeoutToken | ParkingLot::kSleeper;

std::uint32_t StateOf(const ParkSpot& spot) {
  // mo: acquire — [harness] inspect the token word after the threads that
  // touched it were joined or passed a barrier.
  return spot.state.load(std::memory_order_acquire);
}

// Busy-waits `ns` nanoseconds: offsets inside the 20 us spin window need
// finer control than sleep_for gives.
void BusyFor(std::uint64_t ns) {
  const auto until = Clock::now() + std::chrono::nanoseconds(ns);
  while (Clock::now() < until) {
    CpuRelax();
  }
}

// A random offset: mostly inside the spin window, sometimes past it, so
// both the spin-hit path and the sleeper-bit/block path race the post.
std::uint64_t RandomOffsetNs(SplitMix64& rng) {
  if (rng.NextBounded(8) == 0) {
    return 40'000 + rng.NextBounded(160'000);
  }
  return rng.NextBounded(30'000);
}

// A lost token leaves its waiter blocked for good, where no join can reach
// it. Rather than hang until the ctest timeout, a test that overruns its
// budget aborts the binary.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds budget)
      : thread_([this, budget] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, budget, [this] { return done_; })) {
            std::fprintf(stderr, "parking_lot_test: a waiter never woke "
                                 "(lost token)\n");
            std::abort();
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

class ParkingLotTest : public ::testing::TestWithParam<ParkingLot::Backend> {
 protected:
  ParkingLot lot_{GetParam()};
  Watchdog watchdog_{std::chrono::seconds(60)};
};

TEST_P(ParkingLotTest, PostBeforeParkIsConsumedWithoutBlocking) {
  ParkSpot spot;
  lot_.Post(spot);
  EXPECT_EQ(StateOf(spot), ParkingLot::kWakeToken);
  EXPECT_TRUE(lot_.ConsumeToken(spot));
  EXPECT_EQ(StateOf(spot), 0u);
}

// One waker, one waiter, ping-pong: every post is matched by exactly one
// consume. A lost token stalls the waiter (the watchdog fails the test); a
// duplicated one lets the waiter consume ahead of the posts.
TEST_P(ParkingLotTest, PostRacingParkLosesAndDuplicatesNoToken) {
  ParkSpot spot;
  std::atomic<int> posted{0};
  std::atomic<int> consumed{0};
  std::atomic<bool> ahead{false};
  std::thread waiter([&] {
    SplitMix64 rng(7);
    for (int i = 0; i < kRounds; ++i) {
      if (rng.NextBounded(4) == 0) {
        BusyFor(RandomOffsetNs(rng));  // let the post land before the park
      }
      lot_.ConsumeToken(spot);
      // mo: acquire — [harness] pairs with the waker's release increment.
      const int posts = posted.load(std::memory_order_acquire);
      if (i + 1 > posts) {
        // mo: release — [harness] report the duplicate to the test body.
        ahead.store(true, std::memory_order_release);
      }
      // mo: release — [harness] ack to the waker.
      consumed.fetch_add(1, std::memory_order_release);
    }
  });
  SplitMix64 rng(11);
  for (int i = 0; i < kRounds; ++i) {
    BusyFor(RandomOffsetNs(rng));
    // mo: release — [harness] counted before the token it accounts for.
    posted.fetch_add(1, std::memory_order_release);
    lot_.Post(spot);
    // mo: acquire — [harness] wait for the waiter's ack of this post.
    while (consumed.load(std::memory_order_acquire) < i + 1) {
      std::this_thread::yield();
    }
  }
  waiter.join();
  // mo: acquire — [harness] read after join.
  EXPECT_FALSE(ahead.load(std::memory_order_acquire))
      << "a wake token was consumed twice";
  // mo: acquire — [harness] read after join.
  EXPECT_EQ(consumed.load(std::memory_order_acquire), kRounds);
  EXPECT_EQ(StateOf(spot), 0u);
}

// The timed protocol of TmSystem::ParkWaiter, without the TM around it: per
// round the owner arms an epoch and parks for either token; a waker posts the
// wake token and a ticker posts a timeout for the round's epoch (or, some
// rounds, a stale one) at random offsets. Whatever the interleaving, the round
// must consume the wake token exactly once — through the park, or through the
// timeout drain when the timeout won — and leave no wake token or sleeper bit
// behind.
TEST_P(ParkingLotTest, WakeVsTimeoutTokensAccountedExactly) {
  ParkSpot spot;
  std::barrier round_start(3);
  std::barrier round_end(3);
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<bool> stale_round{false};
  int wakes = 0;
  int timeouts = 0;
  int stale_accepted = 0;
  int dirty_rounds = 0;

  std::thread waker([&] {
    SplitMix64 rng(3);
    for (int i = 0; i < kRounds; ++i) {
      round_start.arrive_and_wait();
      BusyFor(RandomOffsetNs(rng));
      lot_.Post(spot);
      round_end.arrive_and_wait();
    }
  });
  std::thread ticker([&] {
    SplitMix64 rng(5);
    for (int i = 0; i < kRounds; ++i) {
      round_start.arrive_and_wait();
      BusyFor(RandomOffsetNs(rng));
      // mo: acquire — [harness] the round's epoch and kind, published before
      // round_start (which orders them anyway).
      std::uint64_t e = epoch.load(std::memory_order_acquire);
      // mo: acquire — [harness] as above.
      if (stale_round.load(std::memory_order_acquire)) {
        if (lot_.PostTimeout(spot, e - 1)) {
          ++stale_accepted;  // ticker-owned; read after join
        }
      } else {
        lot_.PostTimeout(spot, e);
      }
      round_end.arrive_and_wait();
    }
  });

  SplitMix64 rng(9);
  for (int i = 0; i < kRounds; ++i) {
    // mo: release — [harness] publish the round's kind to the ticker.
    stale_round.store(rng.NextBounded(4) == 0, std::memory_order_release);
    // mo: release — [harness] publish the round's epoch to the ticker.
    epoch.store(lot_.ArmTimed(spot), std::memory_order_release);
    round_start.arrive_and_wait();
    if (lot_.ParkEither(spot)) {
      ++wakes;
    } else {
      // The waker posts every round, so a timeout must be drained.
      ++timeouts;
      lot_.ConsumeToken(spot);
    }
    round_end.arrive_and_wait();
    // Every producer of this round is done: only a timeout token that lost
    // the race to the wake token may remain (the next ArmTimed clears it).
    if ((StateOf(spot) & ~ParkingLot::kTimeoutToken) != 0u) {
      ++dirty_rounds;
    }
  }
  waker.join();
  ticker.join();
  EXPECT_EQ(stale_accepted, 0) << "a stale epoch delivered a timeout";
  EXPECT_EQ(dirty_rounds, 0) << "a round left a wake token or sleeper bit";
  // Both outcomes of the race were exercised.
  EXPECT_GT(wakes, 0);
  EXPECT_GT(timeouts, 0);
  lot_.ArmTimed(spot);
  EXPECT_EQ(StateOf(spot) & kTokenBits, 0u);
}

// More spots blocked at once than the pool has buckets, so pool sleepers
// must share buckets, and a post's notify_all wakes every sharer: each
// sharer without a token has to go back to sleep, and none may take another
// spot's token. Every spot is posted once, in shuffled order, and must be
// consumed exactly once with nothing left in its word. The futex backend
// runs the same protocol.
TEST_P(ParkingLotTest, SharedBucketsDeliverEachTokenExactlyOnce) {
  constexpr int kSpots = 300;
  static_assert(kSpots > static_cast<int>(ParkingLot::kPoolBuckets));
  std::vector<ParkSpot> spots(kSpots);
  std::vector<std::atomic<bool>> posted(kSpots);
  // Written by waiter i before it exits; read after the join.
  std::vector<char> spun(kSpots, 0);
  std::vector<char> early(kSpots, 0);
  std::vector<std::thread> waiters;
  waiters.reserve(kSpots);
  for (int i = 0; i < kSpots; ++i) {
    waiters.emplace_back([&, i] {
      const auto k = static_cast<std::size_t>(i);
      spun[k] = lot_.ConsumeToken(spots[k]) ? 1 : 0;
      // mo: acquire — [harness] pairs with the poster's release store: a
      // waiter that returns before its own spot was posted took no token.
      early[k] = posted[k].load(std::memory_order_acquire) ? 0 : 1;
    });
  }
  // Post only once every waiter has advertised itself as blocked, so all
  // kSpots are parked at the same time.
  for (const ParkSpot& spot : spots) {
    while ((StateOf(spot) & ParkingLot::kSleeper) == 0u) {
      std::this_thread::yield();
    }
  }
  std::vector<std::size_t> order(kSpots);
  for (std::size_t k = 0; k < order.size(); ++k) {
    order[k] = k;
  }
  SplitMix64 rng(13);
  for (std::size_t k = order.size() - 1; k > 0; --k) {
    std::swap(order[k], order[rng.NextBounded(k + 1)]);
  }
  for (std::size_t k : order) {
    // mo: release — [harness] marks the spot posted before its token lands.
    posted[k].store(true, std::memory_order_release);
    lot_.Post(spots[k]);
  }
  for (auto& t : waiters) {
    t.join();
  }
  for (std::size_t k = 0; k < spots.size(); ++k) {
    EXPECT_EQ(early[k], 0) << "spot " << k << " woke without its token";
    EXPECT_EQ(spun[k], 0) << "spot " << k << " was posted before it blocked";
    EXPECT_EQ(StateOf(spots[k]), 0u) << "spot " << k << " kept a token";
  }
}

// A post that lands while its waiter spins is consumed without blocking: the
// waiter never sets the sleeper bit, so the poster makes no wake syscall,
// and the word is clean afterwards.
TEST_P(ParkingLotTest, PostDuringSpinLeavesNoSleeperBit) {
  if (!lot_.CanSpin()) {
    GTEST_SKIP() << "single CPU: the lot never spins";
  }
  ParkSpot spot;
  constexpr int kAttempts = 200;
  // Lockstep rounds: the poster opens round i (go), the waiter announces its
  // wait (waiting), and the round ends when the waiter has consumed and
  // recorded the token (done). The waiter starts no new wait until the
  // poster has checked the round, so every state read below sees round i.
  std::atomic<int> go_round{-1};
  std::atomic<int> waiting_round{-1};
  std::atomic<int> done_round{-1};
  // Written by the waiter before it publishes done_round for the round.
  std::vector<char> spun(kAttempts, 0);
  std::vector<std::uint32_t> after_consume(kAttempts, 0);
  std::thread waiter([&] {
    for (int i = 0; i < kAttempts; ++i) {
      // mo: acquire — [harness] pairs with the poster's round opening.
      while (go_round.load(std::memory_order_acquire) < i) {
        CpuRelax();
      }
      // mo: release — [harness] tell the poster this round's wait began.
      waiting_round.store(i, std::memory_order_release);
      const auto r = static_cast<std::size_t>(i);
      spun[r] = lot_.ConsumeToken(spot) ? 1 : 0;
      after_consume[r] = StateOf(spot);
      // mo: release — [harness] publishes the round's records with its end.
      done_round.store(i, std::memory_order_release);
    }
  });
  int spin_hits = 0;
  for (int i = 0; i < kAttempts; ++i) {
    // mo: release — [harness] open round i for the waiter.
    go_round.store(i, std::memory_order_release);
    // mo: acquire — [harness] pairs with the waiter's round announcement.
    while (waiting_round.load(std::memory_order_acquire) < i) {
      CpuRelax();
    }
    lot_.Post(spot);
    // A waiter that blocked had advertised the sleeper bit; one that took
    // the token while spinning (or before it began) never did.
    const std::uint32_t after_post = StateOf(spot);
    // mo: acquire — [harness] wait for the round to finish; pairs with the
    // waiter's release store, making the round's records visible.
    while (done_round.load(std::memory_order_acquire) < i) {
      std::this_thread::yield();
    }
    const auto r = static_cast<std::size_t>(i);
    if (spun[r] != 0) {
      ++spin_hits;
      EXPECT_EQ(after_post & ParkingLot::kSleeper, 0u) << "round " << i;
    }
    EXPECT_EQ(after_consume[r], 0u) << "round " << i;
  }
  waiter.join();
  // Posting right after the waiter announces itself lands inside its 20 us
  // spin in nearly every round; on a loaded machine some rounds miss it.
  EXPECT_GT(spin_hits, 0);
  EXPECT_EQ(StateOf(spot), 0u);
}

// Minimum wall time of a few token-less Spin calls: ~0 when the gate is
// closed, at least kSpinNs when it is open.
std::uint64_t MinSpinNs(ParkingLot& lot, ParkSpot& spot) {
  std::uint64_t best = ~std::uint64_t{0};
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    EXPECT_FALSE(lot.Spin(spot, ParkingLot::kWakeToken));
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
    best = ns < best ? ns : best;
  }
  return best;
}

TEST_P(ParkingLotTest, GateClosesAfterLongWaitsAndReopensAfterShortOnes) {
  if (!lot_.CanSpin()) {
    GTEST_SKIP() << "single CPU: the lot never spins";
  }
  ParkSpot spot;
  // A fresh spot spins.
  EXPECT_GE(MinSpinNs(lot_, spot), ParkingLot::kSpinNs);

  // A run of >= 1 ms waits closes the gate.
  for (int i = 0; i < 5; ++i) {
    std::thread poster([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      lot_.Post(spot);
    });
    lot_.ConsumeToken(spot);
    poster.join();
  }
  EXPECT_GT(spot.wait_ewma_ns, ParkingLot::kSpinGateNs);
  EXPECT_LT(MinSpinNs(lot_, spot), ParkingLot::kSpinNs / 2);

  // A run of short waits (the token is already there) re-opens it.
  int short_waits = 0;
  while (spot.wait_ewma_ns > ParkingLot::kSpinGateNs && short_waits < 100) {
    lot_.Post(spot);
    EXPECT_TRUE(lot_.ConsumeToken(spot));
    ++short_waits;
  }
  EXPECT_LE(short_waits, 64);
  EXPECT_LE(spot.wait_ewma_ns, ParkingLot::kSpinGateNs);
  EXPECT_GE(MinSpinNs(lot_, spot), ParkingLot::kSpinNs);
  EXPECT_EQ(StateOf(spot), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ParkingLotTest,
    ::testing::Values(ParkingLot::Backend::kFutex, ParkingLot::Backend::kPool),
    [](const ::testing::TestParamInfo<ParkingLot::Backend>& info) {
      return info.param == ParkingLot::Backend::kPool ? std::string("Pool")
                                                      : std::string("Futex");
    });

}  // namespace
}  // namespace tcs
