#include "src/tm/quiesce.h"

#include <algorithm>

#include "src/common/assert.h"
#include "src/common/cpu.h"

namespace tcs {

QuiesceTable::QuiesceTable(int max_threads) : max_threads_(max_threads) {
  TCS_CHECK(max_threads > 0);
  num_segments_ =
      (max_threads + kCondSyncSegmentSize - 1) >> kCondSyncSegmentShift;
  segments_ = std::make_unique<std::atomic<Segment*>[]>(
      static_cast<std::size_t>(num_segments_));
  for (int i = 0; i < num_segments_; ++i) {
    // mo: relaxed — single-threaded construction; the table is published to
    // worker threads by the owning runtime's thread-start edge.
    segments_[i].store(nullptr, std::memory_order_relaxed);
  }
}

QuiesceTable::~QuiesceTable() {
  for (int i = 0; i < num_segments_; ++i) {
    // mo: relaxed — destruction is single-threaded; every reader and
    // committer is quiescent.
    delete segments_[i].load(std::memory_order_relaxed);
  }
}

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

QuiesceTable::Segment& QuiesceTable::EnsureSegment(int si) {
  // mo: acquire — [seg-publish]: pairs with the release directory CAS below;
  // a non-null pointer implies a fully initialized (all-kInactive) block.
  Segment* seg = segments_[si].load(std::memory_order_acquire);
  if (seg != nullptr) {
    return *seg;
  }
  auto fresh = std::make_unique<Segment>();  // Slots default to kInactive.
  Segment* expected = nullptr;
  // mo: acq_rel — [seg-publish]: success releases the initialized block to
  // every acquire directory load (and is sequenced before the owner's first
  // seq_cst SetActive, which is what lets the commit-path scan skip null
  // entries — see the header); failure acquires the winning racer's
  // publication so the adopted block is fully visible.
  if (segments_[si].compare_exchange_strong(expected, fresh.get(),
                                            std::memory_order_acq_rel)) {
    return *fresh.release();
  }
  // Lost the publication race: drop our block, adopt the winner's.
  return *expected;
}

template <typename F>
void QuiesceTable::ForEachSlot(F&& fn) const {
  // Read once, after the caller's anchor: a thread registered later is one
  // this walk is not obliged to wait for (see the header).
  const int bound = this->bound();
  for (int si = 0, base = 0; base < bound;
       ++si, base += kCondSyncSegmentSize) {
    // mo: acquire — [seg-publish]: pairs with the allocator's release CAS. A
    // null entry is skipped soundly: segment publication is sequenced before
    // the owning threads' seq_cst SetActive / commit-flag stores, so a thread
    // this walk is obliged to wait for ([quiesce-dekker], [serial-token]) has
    // its segment visible here.
    Segment* seg = segments_[si].load(std::memory_order_acquire);
    if (seg == nullptr) {
      continue;
    }
    const int n = std::min(kCondSyncSegmentSize, bound - base);
    for (int r = 0; r < n; ++r) {
      fn(base + r, seg->slots[r]);
    }
  }
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

std::size_t QuiesceTable::FootprintBytes() const {
  std::size_t bytes =
      static_cast<std::size_t>(num_segments_) * sizeof(segments_[0]);
  for (int si = 0; si < num_segments_; ++si) {
    // mo: relaxed — monitoring read; only the pointer's nullness is used.
    if (segments_[si].load(std::memory_order_relaxed) != nullptr) {
      bytes += sizeof(Segment);
    }
  }
  return bytes;
}

}  // namespace tcs
