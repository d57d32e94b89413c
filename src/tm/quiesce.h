// Commit-time quiescence for privatization safety (Appendix A, TxCommit line 20).
//
// After a writer commit at time `end`, the committer waits until no other thread is
// still executing a transaction that began before `end`. Such a straggler might
// otherwise read memory the committer just privatized and is about to reclaim or
// access non-transactionally. This matches the "privatization-safe variant of
// TinySTM" ("ml-wt") the paper benchmarks.
//
// The table is the domain's one per-thread commit-path table: each thread's
// cache-line slot holds its quiesce entry and, for the simulated HTM, its
// "hardware commit in progress" flag ([serial-token]), which serial entry
// drains. Both walks — WaitForReadersBefore and WaitForCommitFlagsClear —
// visit the same slots.
//
// Capacity tier: slots live in lazily allocated 256-thread segments behind an
// atomic directory ([seg-publish]), so a 64Ki-thread ceiling costs a few
// directory words, not a 4MB slab. A null directory entry is safe to skip:
// a thread's segment publication (release CAS) is sequenced before its first
// SetActive, and SetActive's seq_cst store orders all program-order-earlier
// stores before itself — so any committer whose [quiesce-dekker] anchor
// obliges it to observe the straggler's slot also observes the segment
// pointer, and a committer that reads null is one the straggler's clock
// sample is ordered after (start ≥ end).
//
// Scan bound: the walks stop at the registered-tid high-water mark — the
// number of tids the domain has handed out (Register) — not at the directory's
// capacity, so a commit costs one slot per thread that exists, not 256 per
// touched segment. The bound rides the same anchors as a null segment: the
// registrant raises it before its first seq_cst SetActive (or commit-flag)
// store, and the committer reads it after its seq_cst clock RMW (the serial
// entrant after its seq_cst token store). A scan obliged by [quiesce-dekker]
// or [serial-token] to see a thread's slot therefore also sees a bound that
// covers it; a scan that reads a bound below a tid is one that thread's first
// transaction is ordered after. The bound never shrinks: a recycled tid stays
// below it.
#ifndef TCS_TM_QUIESCE_H_
#define TCS_TM_QUIESCE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/common/cache_line.h"
#include "src/condsync/segment.h"
#include "src/tm/protocol_checker.h"

namespace tcs {

class QuiesceTable {
 public:
  explicit QuiesceTable(int max_threads);
  ~QuiesceTable();

  QuiesceTable(const QuiesceTable&) = delete;
  QuiesceTable& operator=(const QuiesceTable&) = delete;

  // Admits `tid` to the walks by raising the bound past it. Callers serialize
  // registration (TmSystem's registration lock) and call this on the
  // registering thread before its first SetActive or commit-flag store.
  void Register(int tid);

  // The registered-tid high-water mark: every tid below it was handed out.
  int bound() const {
    // mo: acquire — [quiesce-dekker] [serial-token] rider: the bound is a
    // plain count published by Register's release store; the walks' anchors
    // (see the header) decide which raise a scan must observe.
    return bound_.load(std::memory_order_acquire);
  }

  // Publishes that `tid` is running a transaction that began at `start`.
  void SetActive(int tid, std::uint64_t start) {
    TCS_PROTO(if (checker_ != nullptr) checker_->OnQuiesceActive(tid, bound()));
    // mo: seq_cst — [quiesce-dekker] reader leg: W(slot)/R(clock) against the
    // committer's W(clock)/R(slot).
    // seq_cst-required: store-buffering exclusion — either the quiescence
    // scan sees this slot active (and waits for it), or this thread's clock
    // sample is ordered after the commit's increment and start ≥ end;
    // release on the store would let both sides read stale values and
    // privatized memory be reused under a still-running reader.
    SlotOf(tid).start.store(start, std::memory_order_seq_cst);
  }

  // mo: release — pairs with WaitForReadersBefore's acquire load: the
  // transaction's last transactional read is ordered before the committer
  // proceeds to reuse privatized memory.
  void SetInactive(int tid) {
    SlotOf(tid).start.store(kInactive, std::memory_order_release);
  }

  // Blocks until every registered thread other than `self` either is inactive
  // or is running a transaction that started at or after `time`.
  void WaitForReadersBefore(std::uint64_t time, int self) const;

  // The simulated HTM's per-thread "hardware commit in progress" flag
  // ([serial-token]); SimHtm raises and clears it around its commit window.
  std::atomic<int>& CommitFlag(int tid) { return SlotOf(tid).committing; }

  // Serial entry's drain: blocks until no registered thread's commit flag is
  // raised.
  void WaitForCommitFlagsClear() const;

  // Bytes currently committed to this table: the directory plus every
  // allocated segment.
  std::size_t FootprintBytes() const;

  // Domain-owned tables report SetActive calls to the protocol checker
  // (TCS_PROTOCOL_CHECKS builds); standalone tables stay unchecked.
  void AttachProtocolChecker(ProtocolChecker* checker) { checker_ = checker; }

  int max_threads() const { return max_threads_; }

 private:
  static constexpr std::uint64_t kInactive = ~std::uint64_t{0};

  struct alignas(kCacheLineBytes) Slot {
    std::atomic<std::uint64_t> start{kInactive};
    std::atomic<int> committing{0};
  };
  struct Segment {
    Slot slots[kCondSyncSegmentSize];
  };

  // The slot for `tid`, allocating its segment on first touch.
  Slot& SlotOf(int tid) {
    return EnsureSegment(tid >> kCondSyncSegmentShift)
        .slots[tid & (kCondSyncSegmentSize - 1)];
  }
  Segment& EnsureSegment(int si);

  // Calls fn(tid, slot) for every allocated slot below the bound.
  template <typename F>
  void ForEachSlot(F&& fn) const;

  std::unique_ptr<std::atomic<Segment*>[]> segments_;
  int num_segments_;
  int max_threads_;
  std::atomic<int> bound_{0};
  ProtocolChecker* checker_ = nullptr;
};

}  // namespace tcs

#endif  // TCS_TM_QUIESCE_H_
