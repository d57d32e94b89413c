#include "src/condsync/retry_orig.h"

#include <unordered_set>

#include "src/common/assert.h"

namespace tcs {

RetryOrigRegistry::RetryOrigRegistry(int max_threads, ParkingLot& lot,
                                     VersionClock& clock)
    : lot_(lot), clock_(clock), max_threads_(max_threads) {
  TCS_CHECK(max_threads > 0);
}

RetryOrigRegistry::Entry& RetryOrigRegistry::EntryOf(int tid) {
  TCS_CHECK(tid >= 0 && tid < max_threads_);
  if (static_cast<std::size_t>(tid) >= entries_.size()) {
    entries_.resize(static_cast<std::size_t>(tid) + 1);
  }
  return entries_[static_cast<std::size_t>(tid)];
}

void RetryOrigRegistry::WaitForOverlap(TxDesc& d,
                                       std::vector<const Orec*> read_orecs,
                                       std::uint64_t start,
                                       const std::vector<ReleasedOrec>& released) {
  // Raise, registration RMW, validate (header comment).
  // mo: relaxed — [clock-chain] rider: the registration RMW below orders the
  // raise before the count_ peek of any commit that serializes after it; the
  // RMW itself only needs atomicity.
  count_.fetch_add(1, std::memory_order_relaxed);
  clock_.Increment();

  bool slept = false;
  {
    SpinLockGuard g(lock_);
    bool valid = true;
    for (const Orec* o : read_orecs) {
      // mo: acquire — [orec-publish], and a [clock-chain] rider: a writer
      // whose commit RMW precedes our registration RMW locked this orec
      // before it, so the load sees the lock or a later version.
      std::uint64_t w = o->word.load(std::memory_order_acquire);
      if (!Orec::IsLocked(w) && Orec::Version(w) <= start) {
        continue;
      }
      // An orec this transaction itself wrote was bumped by our own rollback;
      // that does not constitute a change (see header).
      bool own_release = false;
      for (const ReleasedOrec& r : released) {
        if (r.orec == o && r.word_after_release == w) {
          own_release = true;
          break;
        }
      }
      if (!own_release) {
        valid = false;
        break;
      }
    }
    if (valid) {
      Entry& e = EntryOf(d.tid);
      e.reads = std::move(read_orecs);
      e.spot = &d.park;
      e.sleeping = true;
      slept = true;
    }
  }
  if (slept) {
    d.stats.Bump(Counter::kSleeps);
    lot_.ConsumeToken(d.park);
    SpinLockGuard g(lock_);
    // Re-fetch: another waiter's first registration may have grown entries_
    // while we slept, invalidating any reference held across the unlock.
    Entry& e = EntryOf(d.tid);
    e.sleeping = false;
    e.reads.clear();
  }
  // mo: relaxed — [clock-chain] rider: per-word coherence keeps the lowering
  // after the raise; a writer that still sees the raised count merely takes
  // the scan slow path and finds no sleeping entry under the lock.
  count_.fetch_sub(1, std::memory_order_relaxed);
  d.stats.Bump(Counter::kDeschedules);
}

void RetryOrigRegistry::OnWriterCommit(const std::vector<const Orec*>& write_orecs) {
  // Build the intersection probe once per commit.
  std::unordered_set<const Orec*> writes(write_orecs.begin(), write_orecs.end());
  SpinLockGuard g(lock_);
  for (Entry& e : entries_) {
    if (!e.sleeping) {
      continue;
    }
    bool overlap = e.reads.empty();  // an empty read set waits on any commit
    for (const Orec* o : e.reads) {
      if (writes.count(o) != 0) {
        overlap = true;
        break;
      }
    }
    if (overlap) {
      e.sleeping = false;
      lot_.Post(*e.spot);
    }
  }
}

}  // namespace tcs
