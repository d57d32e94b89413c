// The capacity tier's lazily published directory of 256-tid segments.
//
// WakeIndex and QuiesceTable each keep per-thread state, and neither may size
// a flat slab to max_threads: at the 64Ki default ceiling that is megabytes
// per domain for a handful of threads. Each instead keeps a SegmentDirectory
// of its own Block type: a fixed array of atomic pointers, one per 256-tid
// range, whose entries stay null until a tid of the range first touches the
// table. Memory then scales with the tid ranges in use, and 10^6 tids cost
// ~4k directory words up front.
//
// Publication is the [seg-publish] edge (glossary in
// src/condsync/wake_index.h), implemented only here: Ensure builds a block
// and installs it with an acq_rel CAS; Get and ForEach load entries with
// acquire, so a reader that sees a pointer sees a fully built block. A null
// entry means no tid of that range ever touched the table.
#ifndef TCS_COMMON_SEGMENT_DIRECTORY_H_
#define TCS_COMMON_SEGMENT_DIRECTORY_H_

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstddef>
#include <memory>

#include "src/common/assert.h"

namespace tcs {

// 256 tids per segment: one segment's presence bitmap is exactly four 64-bit
// words (kSegmentWords), and a segment's slot slab stays in the tens-of-KB
// range — cheap enough to allocate on first touch, large enough that 10^6
// tids need only ~4k directory entries.
inline constexpr int kSegmentShift = 8;
inline constexpr int kSegmentSize = 1 << kSegmentShift;
inline constexpr int kSegmentWords = kSegmentSize / 64;

// Segments needed to cover tids [0, max_tids).
inline constexpr int SegmentCount(int max_tids) {
  return (max_tids + kSegmentSize - 1) >> kSegmentShift;
}

template <typename Block>
class SegmentDirectory {
 public:
  explicit SegmentDirectory(int max_tids) : size_(SegmentCount(max_tids)) {
    TCS_CHECK(max_tids > 0);
    // Value-initialized entries start null.
    entries_ = std::make_unique<Entry[]>(static_cast<std::size_t>(size_));
  }

  ~SegmentDirectory() {
    for (int si = 0; si < size_; ++si) {
      // mo: relaxed — destruction is single-threaded; the owning table's
      // users have all joined.
      delete entries_[si].load(std::memory_order_relaxed);
    }
  }

  SegmentDirectory(const SegmentDirectory&) = delete;
  SegmentDirectory& operator=(const SegmentDirectory&) = delete;

  // Number of directory entries.
  int size() const { return size_; }

  // Segment `si`, or null if no tid of its range ever touched the table.
  Block* Get(int si) const {
    // mo: acquire — [seg-publish]: pairs with Publish's CAS; a non-null
    // pointer implies a fully built block.
    return entries_[si].load(std::memory_order_acquire);
  }

  // Segment `si`, building Block(args...) and publishing it on first touch.
  // Racing first touches agree on one block; on_publish() runs once, on the
  // thread whose block won.
  template <typename OnPublish, typename... Args>
  Block& Ensure(int si, OnPublish&& on_publish, const Args&... args) {
    if (Block* b = Get(si)) {
      return *b;
    }
    return Publish(si, on_publish, args...);
  }

  // Calls fn(si, block) for every published segment below `limit`,
  // ascending.
  template <typename Fn>
  void ForEach(Fn&& fn, int limit = INT_MAX) const {
    const int n = std::min(limit, size_);
    for (int si = 0; si < n; ++si) {
      if (Block* b = Get(si)) {
        fn(si, *b);
      }
    }
  }

  // Number of published segments.
  int Allocated() const {
    int n = 0;
    ForEach([&](int, Block&) { ++n; });
    return n;
  }

  // Bytes committed: the directory plus `block_bytes` per published segment.
  std::size_t FootprintBytes(std::size_t block_bytes) const {
    return static_cast<std::size_t>(size_) * sizeof(Entry) +
           static_cast<std::size_t>(Allocated()) * block_bytes;
  }

 private:
  // Out of line so Ensure's callers inline only the load and the null test.
  template <typename OnPublish, typename... Args>
  [[gnu::noinline]] Block& Publish(int si, OnPublish& on_publish,
                                   const Args&... args) {
    auto fresh = std::make_unique<Block>(args...);
    Block* expected = nullptr;
    // mo: acq_rel — [seg-publish]: success releases the built block to every
    // acquire Get; failure acquires the winner's publication, so the adopted
    // block is fully visible. A loser frees its own block on return.
    if (entries_[si].compare_exchange_strong(expected, fresh.get(),
                                             std::memory_order_acq_rel)) {
      on_publish();
      return *fresh.release();
    }
    return *expected;
  }

  using Entry = std::atomic<Block*>;

  const int size_;
  std::unique_ptr<Entry[]> entries_;
};

}  // namespace tcs

#endif  // TCS_COMMON_SEGMENT_DIRECTORY_H_
