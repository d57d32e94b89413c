#include "src/tm/quiesce.h"

#include <algorithm>

#include "src/common/assert.h"
#include "src/common/cpu.h"

namespace tcs {

void QuiesceTable::Register(int tid) {
  TCS_CHECK(tid >= 0 && tid < max_threads_);
  // mo: relaxed — registration is serialized by the caller, so the last
  // raise is this thread's own or ordered before it by the caller's lock.
  if (tid >= bound_.load(std::memory_order_relaxed)) {
    // mo: release — [quiesce-dekker] [serial-token] rider: sequenced before
    // the registrant's first seq_cst SetActive / commit-flag store, which is
    // what obliges a later-anchored scan to read this raise (see the header).
    bound_.store(tid + 1, std::memory_order_release);
  }
}

template <typename F>
void QuiesceTable::ForEachSlot(F&& fn) const {
  // Read once, after the caller's anchor: a thread registered later is one
  // this walk is not obliged to wait for (see the header). Skipping a null
  // segment is sound for the same reason: its publication is sequenced
  // before the owning threads' seq_cst SetActive / commit-flag stores, so a
  // thread this walk is obliged to wait for ([quiesce-dekker],
  // [serial-token]) has its segment visible here.
  const int bound = this->bound();
  segments_.ForEach(
      [&](int si, Segment& seg) {
        const int base = si << kSegmentShift;
        const int n = std::min(kSegmentSize, bound - base);
        for (int r = 0; r < n; ++r) {
          fn(base + r, seg.slots[r]);
        }
      },
      SegmentCount(bound));
}

void QuiesceTable::WaitForReadersBefore(std::uint64_t time, int self) const {
  ForEachSlot([&](int tid, const Slot& slot) {
    if (tid == self) {
      return;
    }
    int spins = 0;
    // mo: acquire — pairs with SetInactive's release store (and SetActive's
    // seq_cst store): once a straggler advances past `time`, its prior
    // transactional reads happen-before this committer's return.
    while (slot.start.load(std::memory_order_acquire) < time) {
      if (++spins < 64) {
        CpuRelax();
      } else {
        CpuYield();
        spins = 0;
      }
    }
  });
}

void QuiesceTable::WaitForCommitFlagsClear() const {
  ForEachSlot([](int, const Slot& slot) {
    // mo: seq_cst — [serial-token] Dekker: either the committer's flag store
    // is ordered before the entrant's token store (we wait here), or it is
    // after and the committer's re-check sees the token and aborts.
    // seq_cst-required: Dekker read leg of the drain; an acquire load could
    // miss a flag whose store is unordered with the token store.
    while (slot.committing.load(std::memory_order_seq_cst) != 0) {
      CpuRelax();
    }
  });
}

}  // namespace tcs
