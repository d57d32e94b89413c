#include "src/condsync/wake_index.h"

namespace tcs {

namespace {

bool IsPowerOfTwo(int v) { return v > 0 && (v & (v - 1)) == 0; }

int Log2(int v) {
  int l = 0;
  while ((1 << l) < v) {
    ++l;
  }
  return l;
}

}  // namespace

WakeIndex::WakeIndex(int max_threads, int num_shards)
    : num_shards_(num_shards),
      shards_log2_(Log2(num_shards)),
      shard_words_((num_shards + 63) / 64),
      segments_(max_threads) {
  TCS_CHECK_MSG(IsPowerOfTwo(num_shards) && num_shards <= kMaxShards,
                "wake-index shard count must be a power of two in [1, 4096]");
}

int WakeIndex::ShardPopulation(int s) const {
  int n = 0;
  segments_.ForEach([&](int, IndexSegment& seg) {
    for (int w = 0; w < kSegmentWords; ++w) {
      // mo: acquire — [wake-publish]: introspection pairs with the release
      // inserts; callers that need a fresh count sequence their own barrier
      // (join/commit) before asking.
      n += __builtin_popcountll(
          ShardWord(seg, s, w).load(std::memory_order_acquire));
    }
  });
  return n;
}

int WakeIndex::GlobalPopulation() const {
  int n = 0;
  segments_.ForEach([&](int, IndexSegment& seg) {
    for (int w = 0; w < kSegmentWords; ++w) {
      // mo: acquire — [wake-publish]: same pairing as the shard scan above.
      n += __builtin_popcountll(seg.global[w].load(std::memory_order_acquire));
    }
  });
  return n;
}

bool WakeIndex::Empty() const {
  bool empty = true;
  const std::size_t slab_words =
      static_cast<std::size_t>(num_shards_) * kSegmentWords;
  segments_.ForEach([&](int, IndexSegment& seg) {
    for (int w = 0; w < kSegmentWords; ++w) {
      // mo: acquire — [wake-publish]: the leak check runs after every waiter
      // thread has joined (thread join orders the final Remove before this
      // load), so acquire is already stronger than required.
      empty = empty && seg.global[w].load(std::memory_order_acquire) == 0;
    }
    for (std::size_t i = 0; i < slab_words; ++i) {
      // mo: acquire — [wake-publish]: same argument as the global scan above.
      empty = empty && seg.bits[i].load(std::memory_order_acquire) == 0;
    }
  });
  return empty;
}

std::size_t WakeIndex::FootprintBytes() const {
  return segments_.FootprintBytes(
      sizeof(IndexSegment) +
      static_cast<std::size_t>(num_shards_) * kSegmentWords *
          sizeof(std::uint64_t) +
      static_cast<std::size_t>(kSegmentSize) * shard_words_ *
          sizeof(std::uint64_t));
}

}  // namespace tcs
