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
      segments_(max_threads),
      summary_words_((segments_.size() + 63) / 64),
      summary_(std::make_unique<std::atomic<std::uint64_t>[]>(
          static_cast<std::size_t>(summary_words_))) {
  TCS_CHECK_MSG(IsPowerOfTwo(num_shards) && num_shards <= kMaxShards,
                "wake-index shard count must be a power of two in [1, 4096]");
}

void WakeIndex::Remove(int tid) {
  TCS_PROTO(if (checker_ != nullptr) checker_->OnWakeDeregister(tid));
  const int si = tid >> kSegmentShift;
  IndexSegment* seg = segments_.Get(si);
  if (seg == nullptr) {
    return;  // Never registered: nothing to clear.
  }
  const int rel = tid & (kSegmentSize - 1);
  const int w = rel / 64;
  const std::uint64_t bit = std::uint64_t{1} << (rel % 64);
  // mo: relaxed — only this owner thread ever flips tid's presence bit, so
  // per-word coherence alone makes the read exact.
  if ((seg->present[w].load(std::memory_order_relaxed) & bit) == 0) {
    return;  // Not registered: nothing to clear.
  }
  std::uint64_t* set = PerTidShards(*seg, rel);
  bool indexed = false;
  ForEachShardIn(set, [&](int s) {
    indexed = true;
    // mo: relaxed — [wake-publish] rider: per-word coherence already keeps
    // insert/clear RMWs on one bitmap word totally ordered, and a scan that
    // reads the pre-clear value only produces a spurious candidate, which the
    // transactional wake check rejects (asleep==0).
    ShardWord(*seg, s, w).fetch_and(~bit, std::memory_order_relaxed);
  });
  if (indexed) {
    std::fill_n(set, shard_words_, 0);
  } else {
    // A registered tid with an empty shard set is on the global list.
    // mo: relaxed — [wake-publish] rider: same spurious-candidate argument
    // as the shard clear above.
    seg->global[w].fetch_and(~bit, std::memory_order_relaxed);
  }
  // mo: relaxed — [wake-publish] rider: a writer that sees the cleared bit
  // merely skips a slot whose transactional deregistration already
  // committed, and one that sees a stale set bit wakes a candidate the
  // transactional check (asleep == 0) rejects.
  if ((seg->present[w].fetch_and(~bit, std::memory_order_relaxed) & ~bit) !=
      0) {
    return;  // Segment word still occupied; summary bit stays.
  }
  for (int ow = 0; ow < kSegmentWords; ++ow) {
    // mo: relaxed — [wake-publish] rider: occupancy peek deciding whether
    // to attempt a summary repair; a stale nonzero word only keeps a
    // conservative summary bit, and a racing registration that makes a
    // word nonzero after this peek re-sets the summary bit itself.
    if (ow != w && seg->present[ow].load(std::memory_order_relaxed) != 0) {
      return;
    }
  }
  RepairSummary(si, *seg);
}

void WakeIndex::RepairSummary(int si, const IndexSegment& seg) {
  const std::uint64_t segbit = std::uint64_t{1} << (si % 64);
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
  // that registration's presence bit (set before its summary bit) and
  // re-set; if it follows, the registration's own RMW re-sets the bit. Either
  // interleaving leaves the bit set once both complete.
  summary_[si / 64].fetch_and(~segbit, std::memory_order_acq_rel);
  bool occupied = false;
  for (int w = 0; w < kSegmentWords; ++w) {
    // mo: acquire — [wake-publish]: rescan of the segment presence mask,
    // ordered after the clear above (see its annotation for why a racing
    // registration's bit is visible here when it must be).
    if (seg.present[w].load(std::memory_order_acquire) != 0) {
      occupied = true;
      break;
    }
  }
  if (occupied) {
    // mo: release — [wake-publish]: conservative re-set, same publication
    // contract as MarkPresent's summary fetch_or.
    summary_[si / 64].fetch_or(segbit, std::memory_order_release);
  }
  // mo: release — [wake-publish] rider: seqlock exit (even); orders the
  // repair's clear/re-set before any reader whose generation pre-read
  // acquires this value, so such a reader sees the repaired state, not the
  // transient clear.
  repair_gen_.fetch_add(1, std::memory_order_release);
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

int WakeIndex::RegisteredCount() const {
  int n = 0;
  segments_.ForEach([&](int, IndexSegment& seg) {
    for (int w = 0; w < kSegmentWords; ++w) {
      // mo: acquire — [wake-publish]: same pairing as the shard scan above.
      n += __builtin_popcountll(seg.present[w].load(std::memory_order_acquire));
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
      // thread has joined (thread join orders the final Remove before these
      // loads), so acquire is already stronger than required.
      empty = empty && seg.present[w].load(std::memory_order_acquire) == 0;
      // mo: acquire — [wake-publish]: same argument as the presence scan.
      empty = empty && seg.global[w].load(std::memory_order_acquire) == 0;
    }
    for (std::size_t i = 0; i < slab_words; ++i) {
      // mo: acquire — [wake-publish]: same argument as the scan above.
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
                 sizeof(std::uint64_t)) +
         static_cast<std::size_t>(summary_words_) * sizeof(summary_[0]);
}

}  // namespace tcs
