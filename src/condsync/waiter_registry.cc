#include "src/condsync/waiter_registry.h"

namespace tcs {

void WaiterRegistry::RepairSummary(int si) {
  const std::uint64_t segbit = std::uint64_t{1} << (si % 64);
  Segment* seg = segments_.Get(si);
  SpinLockGuard g(repair_lock_);
  // mo: relaxed — [wake-publish] rider: seqlock enter (odd). Readers never
  // act on this value alone; one that observes the transient clear below
  // synchronizes through that acq_rel RMW, which orders this increment
  // before its validation re-read.
  repair_gen_.fetch_add(1, std::memory_order_relaxed);
  // mo: acq_rel — [wake-publish]: the repair's transient clear. Release: a
  // reader that observes the cleared word synchronizes with it and must see
  // the odd generation (retry). Acquire: if a racing registration's summary
  // fetch_or precedes this RMW in the word's modification order, this
  // operation synchronizes with it, so the rescan below is guaranteed to see
  // that registration's segment-mask bit (set before its summary bit) and
  // re-set; if it follows, the registration's own RMW re-sets the bit. Either
  // interleaving leaves the bit set once both complete.
  summary_[si / 64].fetch_and(~segbit, std::memory_order_acq_rel);
  bool occupied = false;
  for (int w = 0; w < kSegmentWords; ++w) {
    // mo: acquire — [wake-publish]: rescan of the segment presence mask,
    // ordered after the clear above (see its annotation for why a racing
    // registration's bit is visible here when it must be).
    if (seg->mask[w].load(std::memory_order_acquire) != 0) {
      occupied = true;
      break;
    }
  }
  if (occupied) {
    // mo: release — [wake-publish]: conservative re-set, same publication
    // contract as MarkRegistered's summary fetch_or.
    summary_[si / 64].fetch_or(segbit, std::memory_order_release);
  }
  // mo: release — [wake-publish] rider: seqlock exit (even); orders the
  // repair's clear/re-set before any reader whose generation pre-read
  // acquires this value, so such a reader sees the repaired state, not the
  // transient clear.
  repair_gen_.fetch_add(1, std::memory_order_release);
}

}  // namespace tcs
