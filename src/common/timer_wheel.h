// Hierarchical timer wheel for timed waits at the capacity tier.
//
// The paper's timed waits (RetryFor / AwaitFor / WaitPredFor) each burned a
// private semaphore's timed wait: N concurrent timed waits are N independent
// kernel timeouts, N wakeups per deadline storm, and N timer-queue entries
// the kernel must sort. At 10^5+ timed waiters that is the dominant cost of
// the wait path. The wheel collapses them to O(1) amortized per tick with
// ONE dedicated ticker thread: a timed waiter (TmSystem::ParkWaiter)
// registers (spot, epoch, deadline) and parks on the spot; the ticker
// advances a classic hashed-hierarchical wheel (Varghese & Lauck) and posts a
// timeout token — ParkingLot::PostTimeout, the [wheel-tick] edge — to every
// entry whose slot comes due.
//
// Layout: level 0 is 256 ticks of kTickNs (1 ms) each; levels 1 and 2 are 64
// slots covering 256 and 256*64 ticks per slot; anything further out sits in
// an overflow list rescanned once per full level-2 revolution. Entries
// cascade down a level when their coarse slot expires. Deadlines round UP to
// a tick boundary — the wheel may fire late (bounded by one tick plus ticker
// scheduling lag, reported as max_lag_ns) but never early, so a fired waiter
// observing `now < deadline` can only mean a stale epoch, not an early fire.
//
// Cancellation is lazy (epoch-based, see ParkingLot::ArmTimed): a wait that
// ends by wakeup simply abandons its wheel entry; the entry fires later,
// PostTimeout sees the stale epoch and drops it (counted in Stats::stale).
// No search-and-delete, so Schedule is O(1) under one mutex.
//
// The ticker sleeps indefinitely while the wheel is empty (no idle ticks),
// and Schedule resynchronizes the wheel's origin to wall-clock when arming
// an empty wheel — idle periods advance time, not tick counts, which keeps
// the "ticks serviced ≪ timed waits" capacity property measurable.
#ifndef TCS_COMMON_TIMER_WHEEL_H_
#define TCS_COMMON_TIMER_WHEEL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/parking_lot.h"

namespace tcs {

class TimerWheel {
 public:
  struct Stats {
    std::uint64_t ticks = 0;       // ticker slot advances (not wall ticks)
    std::uint64_t scheduled = 0;   // Schedule() calls
    std::uint64_t fired = 0;       // timeout tokens actually delivered
    std::uint64_t stale = 0;       // fires dropped by the epoch filter
    std::uint64_t cascades = 0;    // entries re-placed from a coarser level
    std::uint64_t max_lag_ns = 0;  // worst observed fire-past-deadline lag
  };

  // Level-0 granularity: the worst-case added latency of a timeout, and the
  // least time any timed wait takes to fire.
  static constexpr std::uint64_t kTickNs = 1'000'000;

  // `lot` must outlive the wheel.
  explicit TimerWheel(ParkingLot* lot);
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Registers a timeout for `spot` under `epoch` (from ParkingLot::ArmTimed).
  // The ticker thread is spawned lazily on first use.
  void Schedule(ParkSpot* spot, std::uint64_t epoch,
                std::chrono::steady_clock::time_point deadline);

  Stats SnapshotStats() const;

 private:
  static constexpr int kL0Slots = 256;  // kTickNs each
  static constexpr int kL1Slots = 64;   // kL0Slots ticks each
  static constexpr int kL2Slots = 64;   // kL0Slots * kL1Slots ticks each

  struct Entry {
    ParkSpot* spot;
    std::uint64_t epoch;
    std::uint64_t deadline_tick;
  };

  // All private helpers run under mu_.
  void Place(Entry e);
  void FireSlot(std::vector<Entry>& slot);
  void AdvanceOneTick();
  std::uint64_t TickOf(std::chrono::steady_clock::time_point tp) const;
  void TickerMain();

  ParkingLot* const lot_;
  const std::chrono::steady_clock::time_point origin_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t current_tick_ = 0;
  std::uint64_t pending_ = 0;
  bool stop_ = false;
  bool ticker_started_ = false;
  std::vector<Entry> l0_[kL0Slots];
  std::vector<Entry> l1_[kL1Slots];
  std::vector<Entry> l2_[kL2Slots];
  std::vector<Entry> overflow_;
  Stats stats_;
  std::thread ticker_;
};

}  // namespace tcs

#endif  // TCS_COMMON_TIMER_WHEEL_H_
