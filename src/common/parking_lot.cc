#include "src/common/parking_lot.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/common/cache_line.h"
#include "src/common/cpu.h"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#endif

namespace tcs {
namespace {

std::uint64_t NsSince(std::chrono::steady_clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t)
          .count());
}

// Folds one finished wait into the spot's gate EWMA (alpha = 1/8).
void RecordWait(ParkSpot& spot, std::uint64_t ns) {
  spot.wait_ewma_ns = (7 * spot.wait_ewma_ns + ns) / 8;
}

// The wait-length clock of a blocking call: started at the first block, read
// once when the call consumes its token.
class BlockClock {
 public:
  void OnBlock() {
    if (!blocked_) {
      blocked_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  void OnDone(ParkSpot& spot) const {
    if (blocked_) {
      RecordWait(spot, NsSince(start_));
    }
  }

 private:
  bool blocked_ = false;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace

// One hashed bucket of the pool backend. The mutex is held only around the
// cv wait predicate and the poster's empty critical section; it orders
// nothing but the sleep/wake itself (data ordering is carried by the spot's
// state word, same as the futex backend).
struct alignas(kCacheLineBytes) ParkingLot::Bucket {
  std::mutex m;
  std::condition_variable cv;
};

ParkingLot::ParkingLot(Backend backend) {
  // Asked once per process: the query reads sysfs, which would add tens of
  // microseconds to every TmSystem construction.
  static const bool kMultiCpu = std::thread::hardware_concurrency() > 1;
  can_spin_ = kMultiCpu;
#if defined(__linux__)
  use_futex_ = (backend != Backend::kPool);
#else
  use_futex_ = false;
  (void)backend;
#endif
  if (!use_futex_) {
    buckets_ = std::make_unique<Bucket[]>(kPoolBuckets);
  }
}

ParkingLot::~ParkingLot() = default;

ParkingLot::Bucket& ParkingLot::BucketOf(const ParkSpot& spot) {
  auto a = reinterpret_cast<std::uintptr_t>(&spot);
  // Spots are at least 16-byte objects; drop the dead low bits before the
  // prime modulus so neighbouring spots land in different buckets.
  return buckets_[(a >> 4) % kPoolBuckets];
}

bool ParkingLot::AdvertiseSleeper(ParkSpot& spot, std::uint32_t& observed) {
  if ((observed & kSleeper) != 0u) {
    return true;  // still set from an earlier block of this same wait
  }
  // mo: relaxed — [park-handoff] rider: the sleeper bit needs no ordering of
  // its own. This CAS and the poster's fetch_or are RMWs on the same word, so
  // one precedes the other in its modification order: either the fetch_or
  // sees the bit and wakes us, or the CAS fails on the posted token and we
  // re-check instead of blocking. The futex (or the bucket mutex) re-checks
  // the word before sleeping, closing the window after a successful CAS.
  if (!spot.state.compare_exchange_strong(observed, observed | kSleeper,
                                          std::memory_order_relaxed)) {
    return false;
  }
  observed |= kSleeper;
  return true;
}

void ParkingLot::WaitOn(ParkSpot& spot, std::uint32_t wanted,
                        std::uint32_t observed) {
  if (!AdvertiseSleeper(spot, observed)) {
    return;
  }
#if defined(__linux__)
  if (use_futex_) {
    // The kernel re-checks state == observed under its own lock before
    // sleeping, so a token posted between our read and the syscall aborts
    // the wait (EAGAIN) instead of being missed.
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&spot.state),
            FUTEX_WAIT_PRIVATE, observed, nullptr, nullptr, 0);
    return;
  }
#endif
  Bucket& b = BucketOf(spot);
  std::unique_lock<std::mutex> lk(b.m);
  b.cv.wait(lk, [&] {
    // mo: acquire — [park-handoff] / [wheel-tick] wait-predicate re-read of
    // the token word under the bucket mutex; pairs with the posting
    // fetch_or so the sleeping side cannot keep waiting after a token is
    // in (the poster's notify happens while holding this mutex). The
    // token-consuming acquire RMW in the caller is the edge's real acquire
    // endpoint; this load only gates the sleep.
    return (spot.state.load(std::memory_order_acquire) & wanted) != 0u;
  });
}

void ParkingLot::WakeAll(ParkSpot& spot) {
#if defined(__linux__)
  if (use_futex_) {
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&spot.state),
            FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
    return;
  }
#endif
  Bucket& b = BucketOf(spot);
  {
    // Empty critical section: excludes the window between a sleeper's
    // predicate check and its cv.wait, so the notify cannot be missed.
    std::lock_guard<std::mutex> lk(b.m);
  }
  b.cv.notify_all();
}

void ParkingLot::Post(ParkSpot& spot) {
  // mo: release — [park-handoff] release endpoint: publishes the wake token
  // after the claim commit and wake-post stamp; the owner's token-consuming
  // acquire RMW (ConsumeToken/ParkEither) pairs with this, making
  // the committed claim visible to the woken waiter. The value it returns
  // says whether the owner had blocked (see AdvertiseSleeper).
  std::uint32_t prev = spot.state.fetch_or(kWakeToken, std::memory_order_release);
  if ((prev & kSleeper) != 0u) {
    WakeAll(spot);
  }
}

bool ParkingLot::PostTimeout(ParkSpot& spot, std::uint64_t epoch) {
  // mo: relaxed — epoch staleness filter only; a stale match that slips
  // through (owner re-armed concurrently) just delivers a spurious timeout
  // token, which ParkEither's caller tolerates by re-checking the deadline.
  if (spot.epoch.load(std::memory_order_relaxed) != epoch) {
    return false;
  }
  // mo: release — [wheel-tick] release endpoint: the ticker publishes the
  // timeout token; the owner's token-consuming acquire RMW in ParkEither
  // pairs with it. The returned value carries the sleeper bit, as in Post.
  std::uint32_t prev =
      spot.state.fetch_or(kTimeoutToken, std::memory_order_release);
  if ((prev & kSleeper) != 0u) {
    WakeAll(spot);
  }
  return true;
}

bool ParkingLot::Spin(ParkSpot& spot, std::uint32_t wanted) {
  // mo: acquire — [park-handoff] peek; the caller's consuming RMW is the
  // edge's real acquire endpoint.
  if ((spot.state.load(std::memory_order_acquire) & wanted) != 0u) {
    RecordWait(spot, 0);
    return true;
  }
  if (!can_spin_ || spot.wait_ewma_ns > kSpinGateNs) {
    return false;
  }
  const auto start = std::chrono::steady_clock::now();
  for (unsigned i = 1;; ++i) {
    CpuRelax();
    // mo: relaxed — [park-handoff] rider: a poll only; the caller's
    // consuming acquire RMW is the edge's endpoint.
    if ((spot.state.load(std::memory_order_relaxed) & wanted) != 0u) {
      RecordWait(spot, NsSince(start));
      return true;
    }
    // The clock is read every 32 polls: cheap, yet the budget overshoots
    // by well under a microsecond.
    if (i % 32 == 0 && NsSince(start) >= kSpinNs) {
      return false;
    }
  }
}

bool ParkingLot::ConsumeToken(ParkSpot& spot) {
  const bool spun = Spin(spot, kWakeToken);
  BlockClock clock;
  for (;;) {
    // mo: acquire — [park-handoff] peek before deciding to consume or sleep;
    // the consuming RMW below is the edge's real acquire endpoint.
    std::uint32_t s = spot.state.load(std::memory_order_acquire);
    if ((s & kWakeToken) != 0u) {
      // Clear a stale timeout token along with the wake token: the timed
      // wait it belonged to is over, and leaving it behind would corrupt
      // the next ParkEither.
      // mo: acquire — [park-handoff] acquire endpoint: consuming the wake
      // token pairs with Post's release fetch_or, so everything the waker
      // did before posting is visible here.
      spot.state.fetch_and(~(kWakeToken | kTimeoutToken | kSleeper),
                           std::memory_order_acquire);
      clock.OnDone(spot);
      return spun;
    }
    clock.OnBlock();
    WaitOn(spot, kWakeToken, s);
  }
}

bool ParkingLot::ParkEither(ParkSpot& spot) {
  BlockClock clock;
  for (;;) {
    // mo: acquire — [park-handoff] peek before deciding to consume or sleep;
    // the consuming RMWs below are the edges' real acquire endpoints.
    std::uint32_t s = spot.state.load(std::memory_order_acquire);
    if ((s & kWakeToken) != 0u) {
      // Wake beats a racing timeout: the claim protocol committed a wakeup
      // for this sleep, so the timeout token (if any) is stale — clear both.
      // mo: acquire — [park-handoff] acquire endpoint (see ConsumeToken).
      spot.state.fetch_and(~(kWakeToken | kTimeoutToken | kSleeper),
                           std::memory_order_acquire);
      clock.OnDone(spot);
      return true;
    }
    if ((s & kTimeoutToken) != 0u) {
      // mo: acquire — [wheel-tick] acquire endpoint: consuming the timeout
      // token pairs with PostTimeout's release fetch_or. Only the timeout
      // bit is cleared — a wake token that lands after this read must
      // survive for the caller's timeout/wakeup drain.
      spot.state.fetch_and(~(kTimeoutToken | kSleeper),
                           std::memory_order_acquire);
      clock.OnDone(spot);
      return false;
    }
    clock.OnBlock();
    WaitOn(spot, kWakeToken | kTimeoutToken, s);
  }
}

std::uint64_t ParkingLot::ArmTimed(ParkSpot& spot) {
  // mo: relaxed — epoch bump is a staleness filter read relaxed by
  // PostTimeout; delivery correctness never depends on its ordering (a
  // stale fire that slips through is dropped by the deadline re-check).
  std::uint64_t e = spot.epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  // mo: relaxed — owner-only cleanup of a stale timeout token from a prior
  // timed wait; producers only ever OR bits in, so no token can be lost,
  // and the owner is the sole reader of the cleared state.
  spot.state.fetch_and(~kTimeoutToken, std::memory_order_relaxed);
  return e;
}

void ParkingLot::Reset(ParkSpot& spot) {
  // mo: relaxed — tid recycling: the registration lock orders this store
  // against both the previous owner's last use and the next owner's first;
  // no concurrent producer can hold a claim on a parked-out descriptor.
  spot.state.store(0, std::memory_order_relaxed);
}

}  // namespace tcs
