// Global logical clock counting writer commits (Appendix A; the TL2 technique).
//
// The increment is an acq_rel RMW: the chain of fetch_adds on the single clock word
// orders writer commits, which the condition-synchronization layer relies on when a
// committing writer decides (with plain atomic peeks) whether any waiter slots can
// be skipped. See WakeIndex (src/condsync/wake_index.h) for the argument.
#ifndef TCS_TM_VERSION_CLOCK_H_
#define TCS_TM_VERSION_CLOCK_H_

#include <atomic>
#include <cstdint>

#include "src/common/cache_line.h"

namespace tcs {

class alignas(kCacheLineBytes) VersionClock {
 public:
  // mo: acquire — [clock-chain]: pairs with the fetch_add chain below; a
  // transaction beginning at start S happens-after every commit with end ≤ S.
  std::uint64_t Load() const { return time_.load(std::memory_order_acquire); }

  // Returns the new (post-increment) time.
  // mo: seq_cst — [clock-chain] release/acquire leg, and the committer's
  // W-side of [quiesce-dekker].
  // seq_cst-required: the commit's increment must be totally ordered against
  // readers' SetActive stores so the quiescence scan and the reader's clock
  // sample cannot both miss each other (store-buffering shape); acq_rel on
  // this RMW would allow start < end with the scan seeing an inactive slot.
  std::uint64_t Increment() {
    return time_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

 private:
  std::atomic<std::uint64_t> time_{0};
};

}  // namespace tcs

#endif  // TCS_TM_VERSION_CLOCK_H_
