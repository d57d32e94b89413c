// The global list of descheduled threads (Algorithm 4's `waiters`), segmented
// for the capacity tier.
//
// Slot state (`active`, `asleep`, `waitfunc`) is read and written through the TM
// itself — registration and wake checks are transactions, exactly as Algorithm 4
// presents them — so the TM's conflict detection serializes a waiter's registration
// against writer commits and closes the lost-wakeup window.
//
// Layout. Slots live in 256-thread segments of a SegmentDirectory
// (src/common/segment_directory.h), so 10^5 registered threads cost ~400
// segment blocks instead of one max_threads-sized slab. Each segment owns a
// 4-word presence bitmap of its own tids, and a top-level *summary* bitmap
// keeps one bit per possibly-occupied segment.
//
// A writer that committed must not pay a scan when nobody waits, and at
// capacity-tier thread counts it must not even pay a bitmap walk proportional
// to max_threads. The summary gives both: HasWaiters reads
// ceil(num_segments/64) words, and the wake path walks popcount(summary)
// segments. A waiter sets its segment presence bit and then its summary bit
// (both release) *before* its registration transaction begins and clears them
// after deregistering; writer commits and the bitmap loads are ordered
// through the global version clock's RMW chain ([clock-chain]'s release
// sequence), so "registration serialized before my commit" implies "I see
// the bit" — the full argument is the [wake-publish] glossary entry in
// wake_index.h.
//
// Clearing a summary bit is the one delicate step: the last waiter leaving a
// segment races a new waiter entering it, and a writer that reads the summary
// exactly between the leaver's clear and its repair re-set would miss the
// newcomer — a lost wakeup, because writers scan once (they are not retrying
// sleepers). The repair therefore runs under a seqlock: generation goes odd,
// the bit is cleared (acq_rel), the segment mask is rescanned, the bit is
// conditionally re-set, generation goes even. Readers that would answer "no
// waiters" (or hand out a summary snapshot) validate the generation and
// retry; readers that see any set bit may return immediately — a stale set
// bit is merely conservative. See HasWaiters/SnapshotSummary for the
// interleaving argument.
#ifndef TCS_CONDSYNC_WAITER_REGISTRY_H_
#define TCS_CONDSYNC_WAITER_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/common/cache_line.h"
#include "src/common/parking_lot.h"
#include "src/common/segment_directory.h"
#include "src/common/spin_lock.h"
#include "src/tm/protocol_checker.h"
#include "src/tm/tx_desc.h"
#include "src/tm/word.h"

namespace tcs {

struct alignas(kCacheLineBytes) WaiterSlot {
  // Transactional words, accessed through TmSystem::Read/Write only.
  TmWord active = 0;
  TmWord asleep = 0;

  // Published with plain stores before the registration transaction commits; the
  // commit's release ordering makes them visible to any waker that observes
  // active == 1 transactionally.
  WaitPredFn fn = nullptr;
  WaitArgs args;
  ParkSpot* park = nullptr;

  // Wake-latency handshake (observability): the claiming waker stamps the post
  // time just before posting the wake token; the waiter reads it right after
  // its park returns. Exclusivity comes from the claim protocol (the
  // transactional asleep 1→0 admits exactly one waker per sleep) and the value
  // rides the [park-handoff] token edge; atomic_ref keeps the cross-thread
  // access tear-free.
  std::uint64_t wake_post_ns = 0;

  void StampWakePost(std::uint64_t ns) {
    // mo: relaxed — ordering comes from the [park-handoff] edge (the token
    // post happens-before the waiter's token consumption); this store only
    // needs atomicity.
    std::atomic_ref<std::uint64_t>(wake_post_ns)
        .store(ns, std::memory_order_relaxed);
  }
  std::uint64_t LoadWakePost() const {
    // mo: relaxed — read after the park returned; the [park-handoff] edge
    // already orders the waker's stamp before this load.
    return std::atomic_ref<const std::uint64_t>(wake_post_ns)
        .load(std::memory_order_relaxed);
  }

  void Prepare(WaitPredFn f, const WaitArgs& a, ParkSpot* s) {
    fn = f;
    args = a;
    park = s;
  }
};

class WaiterRegistry {
 public:
  explicit WaiterRegistry(int max_threads)
      : segments_(max_threads),
        summary_words_((segments_.size() + 63) / 64),
        summary_(std::make_unique<std::atomic<std::uint64_t>[]>(
            static_cast<std::size_t>(summary_words_))) {}

  // Optional dynamic protocol checker (TCS_PROTOCOL_CHECKS builds): reports
  // segment publication so add-once balance is machine-checked.
  void AttachProtocolChecker(ProtocolChecker* checker) { checker_ = checker; }

  // The slot for `tid`, allocating its segment on first touch. Writers may
  // call this for candidate tids whose registry segment they have not seen
  // allocated; the directory resolves the race.
  WaiterSlot& slot(int tid) {
    return EnsureSegment(tid >> kSegmentShift).slots[tid & (kSegmentSize - 1)];
  }

  // Conservative "anyone possibly waiting?" peek for the writer fast path:
  // a summary-word scan, independent of max_threads. A set bit may return
  // true immediately (stale set bits are conservative — the transactional
  // wake check rejects the candidates); an all-zero scan is only trusted if
  // no summary repair overlapped it, because a repair transiently clears a
  // bit it may be about to re-set (see UnmarkRegistered).
  bool HasWaiters() const {
    for (;;) {
      // mo: acquire — [wake-publish] rider: seqlock generation pre-read; the
      // summary word loads below carry the edge, this read only brackets
      // them for the all-zero validation.
      std::uint64_t g1 = repair_gen_.load(std::memory_order_acquire);
      bool any = false;
      for (int w = 0; w < summary_words_; ++w) {
        // mo: acquire — [wake-publish]: the peek runs after the writer's
        // commit RMW on the version clock; [clock-chain]'s release sequence
        // carries the waiter's release summary set (sequenced before its
        // registration commit) to this load, closing the lost-wakeup window.
        // Reading a repair's transient clear (an acq_rel RMW) instead
        // synchronizes with the repair, forcing the generation re-read below
        // to observe its odd generation and retry.
        if (summary_[w].load(std::memory_order_acquire) != 0) {
          any = true;
          break;
        }
      }
      if (any) {
        return true;
      }
      // mo: relaxed — [wake-publish] rider: seqlock validation re-read,
      // ordered after the summary loads by their acquire; it observes an
      // odd/advanced generation iff a repair's transient clear could have
      // hidden a bit from this scan.
      std::uint64_t g2 = repair_gen_.load(std::memory_order_relaxed);
      if (g1 == g2 && (g1 & 1) == 0) {
        return false;
      }
    }
  }

  // Copies a repair-stable summary snapshot into `out` (summary_words()
  // words). The snapshot is a sound iteration mask for the wake path: every
  // waiter whose registration serialized before the caller's commit has its
  // segment's bit set in any stable snapshot taken after that commit
  // ([wake-publish] + the seqlock retry), so skipping zero bits never skips
  // a relevant waiter.
  void SnapshotSummary(std::uint64_t* out) const {
    for (;;) {
      // mo: acquire — [wake-publish] rider: seqlock generation pre-read
      // (see HasWaiters).
      std::uint64_t g1 = repair_gen_.load(std::memory_order_acquire);
      if ((g1 & 1) != 0) {
        continue;  // Repair in flight; its transient clear may be visible.
      }
      for (int w = 0; w < summary_words_; ++w) {
        // mo: acquire — [wake-publish]: same pairing as HasWaiters' scan.
        out[w] = summary_[w].load(std::memory_order_acquire);
      }
      // mo: relaxed — [wake-publish] rider: seqlock validation re-read,
      // ordered after the word loads by their acquire (see HasWaiters).
      std::uint64_t g2 = repair_gen_.load(std::memory_order_relaxed);
      if (g1 == g2) {
        return;
      }
    }
  }
  int summary_words() const { return summary_words_; }

  void MarkRegistered(int tid) {
    const int si = tid >> kSegmentShift;
    Segment& seg = EnsureSegment(si);
    const int rel = tid & (kSegmentSize - 1);
    // mo: release — [wake-publish]: the bit set precedes the registration
    // transaction's [clock-chain] RMW in program order; a writer whose commit
    // serializes after that registration picks it up through the clock's
    // release sequence, so "registration serialized before the commit" implies
    // "the writer sees the bit".
    seg.mask[rel / 64].fetch_or(std::uint64_t{1} << (rel % 64),
                                std::memory_order_release);
    // mo: release — [wake-publish]: the summary bit follows the segment bit
    // and precedes the registration commit the same way; a racing summary
    // repair that clears it synchronizes with this RMW through the summary
    // word and re-sets it after rescanning the segment mask set above.
    summary_[si / 64].fetch_or(std::uint64_t{1} << (si % 64),
                               std::memory_order_release);
  }

  void UnmarkRegistered(int tid) {
    const int si = tid >> kSegmentShift;
    Segment* seg = segments_.Get(si);
    if (seg == nullptr) {
      return;  // Never marked: nothing to clear.
    }
    const int rel = tid & (kSegmentSize - 1);
    // mo: relaxed — [wake-publish] rider: per-word coherence keeps set/clear
    // of the same bit ordered; a writer that sees the cleared bit merely skips
    // a slot whose transactional deregistration already committed, and one
    // that sees a stale set bit wakes a candidate the transactional check
    // (asleep == 0) rejects.
    std::uint64_t prev = seg->mask[rel / 64].fetch_and(
        ~(std::uint64_t{1} << (rel % 64)), std::memory_order_relaxed);
    if ((prev & ~(std::uint64_t{1} << (rel % 64))) != 0) {
      return;  // Segment word still occupied; summary bit stays.
    }
    for (int w = 0; w < kSegmentWords; ++w) {
      // mo: relaxed — [wake-publish] rider: occupancy peek deciding whether
      // to attempt a summary repair; a stale nonzero word only keeps a
      // conservative summary bit, and a racing registration that makes a
      // word nonzero after this peek re-sets the summary bit itself.
      if (w != rel / 64 &&
          seg->mask[w].load(std::memory_order_relaxed) != 0) {
        return;
      }
    }
    RepairSummary(si);
  }

  // Introspection for tests and debugging: is this slot's presence bit set?
  // A timed wait that expires must leave its bit clear (no leaked entries).
  bool IsRegistered(int tid) const {
    const Segment* seg = segments_.Get(tid >> kSegmentShift);
    if (seg == nullptr) {
      return false;
    }
    const int rel = tid & (kSegmentSize - 1);
    // mo: acquire — [wake-publish]: test assertions run after a join or a
    // committed transition they arranged themselves; acquire pairs with the
    // release Mark and per-word coherence covers the Unmark rider.
    return (seg->mask[rel / 64].load(std::memory_order_acquire) &
            (std::uint64_t{1} << (rel % 64))) != 0;
  }

  // Exact count of possibly-registered slots (test/debug/leak checks): scans
  // every allocated segment's mask, not the conservative summary.
  int RegisteredCount() const {
    int n = 0;
    segments_.ForEach([&](int, Segment& seg) {
      for (int w = 0; w < kSegmentWords; ++w) {
        // mo: acquire — [wake-publish]: same pairing as IsRegistered above.
        n += __builtin_popcountll(seg.mask[w].load(std::memory_order_acquire));
      }
    });
    return n;
  }

  // Invokes fn(tid, slot) for every possibly-registered slot, ascending tid.
  // Iterates allocated segments directly (segment masks, not the summary), so
  // it never depends on summary-repair timing.
  template <typename Fn>
  void ForEachRegistered(Fn&& fn) {
    segments_.ForEach([&](int si, Segment& seg) {
      for (int w = 0; w < kSegmentWords; ++w) {
        // mo: acquire — [wake-publish]: the writer-side scan runs after the
        // commit's [clock-chain] RMW, whose release sequence carries every
        // registration's release MarkRegistered to this load.
        std::uint64_t bits = seg.mask[w].load(std::memory_order_acquire);
        while (bits != 0) {
          int bit = __builtin_ctzll(bits);
          bits &= bits - 1;
          fn((si << kSegmentShift) + w * 64 + bit, seg.slots[w * 64 + bit]);
        }
      }
    });
  }

  // Bytes currently committed to this registry: the directory, the summary
  // and every allocated segment block. Feeds the memory-per-waiter metric.
  std::size_t FootprintBytes() const {
    return segments_.FootprintBytes(sizeof(Segment)) +
           static_cast<std::size_t>(summary_words_) * sizeof(summary_[0]);
  }

  // Number of segments with an allocated control block.
  int AllocatedSegments() const { return segments_.Allocated(); }

 private:
  // One 256-thread segment control block: the segment's presence bitmap and
  // its slot slab. Slots are cache-line-aligned individually; the leading
  // mask words share the block's first line, which only Mark/Unmark and
  // writer scans touch.
  struct alignas(kCacheLineBytes) Segment {
    std::atomic<std::uint64_t> mask[kSegmentWords];
    WaiterSlot slots[kSegmentSize];
  };

  Segment& EnsureSegment(int si) {
    return segments_.Ensure(si, [&] {
      TCS_PROTO(if (checker_ != nullptr) checker_->OnSegmentPublished(
                    ProtocolChecker::SegmentKind::kWaiterRegistry, si));
    });
  }
  void RepairSummary(int si);

  SegmentDirectory<Segment> segments_;
  const int summary_words_;
  // One bit per possibly-occupied segment; cleared only under the seqlock
  // repair below.
  const std::unique_ptr<std::atomic<std::uint64_t>[]> summary_;
  // Seqlock generation for summary repairs: odd while a repair's transient
  // clear may be visible. repair_lock_ serializes repairs so odd/even stays
  // meaningful under concurrent drains of different segments.
  mutable std::atomic<std::uint64_t> repair_gen_{0};
  SpinLock repair_lock_;
  ProtocolChecker* checker_ = nullptr;
};

}  // namespace tcs

#endif  // TCS_CONDSYNC_WAITER_REGISTRY_H_
