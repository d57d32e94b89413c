// Retry-Orig: the original STM-coupled Retry mechanism (Algorithm 1), adapted from
// Harris et al.'s Haskell design. Used as the evaluation's baseline "Retry-Orig".
//
// A retrying transaction publishes the *ownership records* of its read set to a
// global waiting list (under the global waiting lock, exactly as Algorithm 1
// presents it); every subsequent writer commit intersects its write-orec set with
// each sleeper's read-orec set and signals on overlap. This is the mechanism the
// paper argues against: it is tied to STM metadata (so it is orec-granular and
// wakes on silent stores) and is incompatible with HTM, which exposes no write set.
//
// One refinement over the pseudocode: Algorithm 1 validates `reads` under the
// waiting lock with the transaction's start time, but an eager transaction that
// wrote some of the locations it read has just release-for-abort-bumped those
// orecs itself. Validation therefore accepts an orec whose current word equals the
// value this thread's own rollback stored ("released" below); any later writer
// commit moves the orec past that value, so the check stays conservative.
//
// Lost-wakeup exclusion rides [clock-chain] (glossary in wake_index.h), as
// Deschedule's does. The waiter (WaitForOverlap) raises count_ (relaxed), runs
// one clock RMW Rw, then loads its read orecs (acquire) under the waiting lock.
// A writer locks its write orecs, runs its commit RMW Rc, peeks count_
// (relaxed, SnapshotCommitOrecsIfNeeded), releases at `end`, then calls
// OnWriterCommit under the waiting lock. Rw and Rc are RMWs on one word, so
// the later one synchronizes with the earlier. If Rw came first, the peek sees
// the raise and OnWriterCommit posts the sleeping entry, or runs before the
// validation, which then sees `end > start`. If Rc came first, the validation
// sees the writer's locked orec or a later version. An eager attempt's own
// Rollback clock bump precedes the raise and plays no part. sim-HTM never runs
// Retry-Orig (TmSystem::RetryOrig checks).
//
// A waiter whose read set is empty (it read only its own writes, which neither
// STM records) can match no write set, so any writer commit posts it.
#ifndef TCS_CONDSYNC_RETRY_ORIG_H_
#define TCS_CONDSYNC_RETRY_ORIG_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/parking_lot.h"
#include "src/common/spin_lock.h"
#include "src/tm/orec_table.h"
#include "src/tm/tx_desc.h"
#include "src/tm/version_clock.h"

namespace tcs {

class RetryOrigRegistry {
 public:
  // `max_threads` only bounds tids; the per-tid entry table grows lazily under
  // the waiting lock, so a 64Ki-thread ceiling costs nothing up front. Sleepers
  // park on their descriptor's ParkSpot through `lot`; registrations run their
  // RMW on `clock`, the domain's version clock.
  RetryOrigRegistry(int max_threads, ParkingLot& lot, VersionClock& clock);

  RetryOrigRegistry(const RetryOrigRegistry&) = delete;
  RetryOrigRegistry& operator=(const RetryOrigRegistry&) = delete;

  // Waiter-presence peek for a committing writer: run after its commit RMW,
  // with its write orecs locked, it sees every earlier registration.
  // mo: relaxed — [clock-chain] rider: the writer's commit RMW synchronizes
  // with every earlier registration RMW, and each raise is sequenced before
  // its RMW; the load itself only needs atomicity.
  bool HasWaiters() const { return count_.load(std::memory_order_relaxed) > 0; }

  // Algorithm 1, Retry lines 3-8: under the waiting lock, re-validate the read
  // orecs against `start` (honoring `released`, see above); if still valid,
  // publish the read set and park on d.park. Returns after wakeup, or
  // immediately when validation failed. The caller restarts either way: it
  // runs between attempts (TmSystem::OnRestart), after the attempt that
  // called RetryOrig has rolled back and unwound.
  void WaitForOverlap(TxDesc& d, const std::vector<const Orec*>& read_orecs,
                      std::uint64_t start,
                      const std::vector<ReleasedOrecWord>& released);

  // Algorithm 1, TxCommit lines 10-15: wake every sleeper whose read-orec set
  // intersects this writer's write-orec set, and every sleeper whose read set
  // is empty.
  void OnWriterCommit(const std::vector<const Orec*>& write_orecs);

 private:
  struct Entry {
    std::vector<const Orec*> reads;
    ParkSpot* spot = nullptr;
    bool sleeping = false;
  };

  // The entry for `tid`, growing the table if needed. Caller holds lock_; the
  // returned reference is invalidated by any later growth, so it must be
  // re-fetched after every lock reacquisition.
  Entry& EntryOf(int tid);

  ParkingLot& lot_;
  VersionClock& clock_;
  int max_threads_;
  SpinLock lock_;  // Algorithm 1's global `waiting` lock
  std::vector<Entry> entries_;  // grown lazily under lock_
  std::atomic<int> count_{0};
};

}  // namespace tcs

#endif  // TCS_CONDSYNC_RETRY_ORIG_H_
