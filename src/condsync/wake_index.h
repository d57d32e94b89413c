// The wakeup index: a sharded orec→waiter map that lets a committing writer
// notify only the waiters whose published waitsets its write set could have
// changed, instead of re-running every registered waiter's predicate.
//
// Motivation. Deschedule's wakeWaiters (Algorithm 4) is a scan: every writer
// commit re-evaluates every registered waiter's waitfunc, so wakeup cost grows
// with *total* waiters. For the paper's four-thread experiments that is fine;
// at many-waiter scale it is exactly the concurrency cost the TM literature
// warns about. The index restores O(relevant): a descheduling waiter whose
// predicate is the value-based findChanges (Retry/Await — the waitset lists the
// precise addresses it depends on) registers under the *shard* of each orec
// covering a waitset address; a committing writer unions the shards of its
// commit-time write-set orecs and wake-checks only those candidates.
//
// Segmented layout (capacity tier). The tid dimension is segmented: instead of
// one flat bitmap slab sized to max_threads, the index is a directory of
// lazily allocated 256-tid segment control blocks (geometry in segment.h).
// Each segment owns its own shard→tid bitmap slab, global-fallback words, and
// owner-side bookkeeping; publication of a fresh segment is a release-CAS on
// the directory entry (the [seg-publish] edge). Capacity grows by appending
// segments — 10^6 waiters cost ~4k directory words up front, with bitmap
// slabs materializing only for tid ranges that actually wait. Writer scans
// iterate allocated segments; TmSystem::WakeWaiters narrows that further to
// segments whose WaiterRegistry summary bit is set (ForEachCandidateInSegments)
// so a full-capacity index costs a writer popcount(segment mask) segment
// visits, not a 4096-shard flat walk.
//
// Shard-set representation. A waiter's shard membership is a per-tid *bitmap*
// of `shard_words()` 64-bit words (owner-thread-only bookkeeping), so the
// shard count can range over any power of two in [1, kMaxShards] — large orec
// tables with hundreds of waiters want many more than 64 shards, or unrelated
// waiters alias into the same shard and every hot-path commit pays spurious
// wake checks. The writer side mirrors this with a fixed-capacity stack
// scratch bitmap, keeping both sides zero-allocation.
//
// Conservativeness argument (no lost wakeups). A findChanges waiter can only
// become satisfied when some written address changes a waitset entry's value;
// that address maps to an orec the writer locked at commit, so the writer's
// shard union covers the waiter's shard — address overlap ⊆ orec overlap
// (hashing) ⊆ shard overlap (coarser hashing). Waiters whose predicate is an
// arbitrary WaitPred function have no address list to index; they register on
// the global fallback list, which every writer always visits. A findChanges
// waiter with an *empty* waitset also lands on the global list: an empty
// address list yields an empty shard set, which no writer union could ever
// cover — the global list is the only conservative registration for it. Both
// sides are strictly conservative: a spurious candidate costs one rejected
// wake-check transaction, never a wrong wake (the check itself is still
// transactional).
//
// The argument is indifferent to how many candidates share one wake
// transaction: candidate *selection* (this index) only decides who gets
// checked, and batching several checks into one transaction
// (TmSystem::WakeWaiters) moves their serialization point, not their
// semantics — each claim is still the transactional asleep 1→0 transition
// with its post issued strictly after commit. deschedule.cc carries the full
// batched claim/post protocol and its abort/retry reasoning.
//
// Publication ordering mirrors the WaiterRegistry presence bitmap: a waiter
// inserts its index entries (release) *before* its registration transaction
// begins, and a writer reads shards (acquire) only after its commit's
// [clock-chain] RMW, so "registration serialized before my commit" implies
// "I see the entries" — see the [wake-publish] glossary entry below for the
// full release-sequence argument that let these drop from seq_cst. Segment
// publication composes with it: the waiter's directory CAS precedes its
// inserts, so a writer that would see the inserts sees the segment pointer
// first ([seg-publish]).
#ifndef TCS_CONDSYNC_WAKE_INDEX_H_
#define TCS_CONDSYNC_WAKE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "src/common/assert.h"
#include "src/common/cache_line.h"
#include "src/condsync/segment.h"
#include "src/tm/protocol_checker.h"

namespace tcs {

struct Orec;

// ---------------------------------------------------------------------------
// Appendix: the happens-before edge glossary for `// mo:` annotations.
//
// Every std::memory_order argument in this codebase carries a `// mo:` comment
// naming its pairing partner; the recurring cross-file edges are named here so
// the comments can reference them by label. Tooling reads this appendix:
// tools/lint_tm_discipline.py enforces the comments' presence, and
// tools/tm_analyze.py parses every annotation into a cross-file edge graph
// keyed by these tags and verifies each edge is well-formed.
//
// Annotation grammar (machine-checked, see tools/tm_lint_lib.py):
//
//   // mo: <order>[ fence] — <argument naming the happens-before partner>
//
// with <order> ∈ {relaxed, acquire, release, acq_rel, seq_cst}. The argument
// may reference edges as `[tag]`; a tag must be declared here or by a
// file-local `// mo-edge: [tag] (minimal: <spec>) — <description>` line.
//
// Every seq_cst site — including seq_cst fences — must additionally carry
//
//   seq_cst-required: <why acquire/release is insufficient>
//
// in its annotation block; tm_analyze's budget gate fails CI on any seq_cst
// site without one. A valid reason names a Dekker / store-buffering shape
// (two threads that each store one word then load the other's): acq/rel
// cannot exclude both loads missing both stores, only membership in the
// single total order S can. Anything weaker than that shape should be argued
// as release/acquire instead of justified.
//
// Each entry's `(minimal: <spec>)` marks the edge's intended minimal
// ordering, which tm_analyze verifies against the code's endpoints:
//   release/acquire  needs ≥1 release-side and ≥1 acquire-side endpoint;
//                    relaxed endpoints only ride the edge
//   seq_cst          a Dekker edge: at least two seq_cst anchors (ops or
//                    fences), each with a seq_cst-required justification;
//                    weaker endpoints ride the anchors
//   external         synchronization comes from a non-atomic primitive
//                    (semaphore, thread join, lock); no endpoint obligations
//   relaxed          endpoints need no ordering at all (atomicity only)
//
//  [orec-publish]  (minimal: release/acquire)
//                  The orec (or sim-HTM cache-line) word's release store of an
//                  unlocked version, paired with every acquire load/CAS that
//                  samples the word. A committer orders its data write-back
//                  before the store; a reader that acquires an unlocked
//                  version therefore sees the published data. The sample /
//                  read / re-check snapshot and all lock acquisitions key on
//                  this one edge.
//
//  [clock-chain]   (minimal: release/acquire)
//                  The global version clock's fetch_add chain (Increment) and
//                  acquire Load. Every committed writer's increment is an RMW
//                  on the one clock word, so the increments form a release
//                  sequence: an acquire operation that reads any link of the
//                  chain synchronizes with every earlier release link, and a
//                  transaction that begins at start S happens-after every
//                  commit with end ≤ S. This chain also orders the wake path:
//                  a waiter's registration transaction and a writer's commit
//                  are both clock RMWs, so one of them serializes first — the
//                  case split the no-lost-wakeup argument below rests on.
//                  (The Increment itself stays seq_cst for the committer leg
//                  of [quiesce-dekker]; the *edge* needs only acq_rel.)
//
//  [wake-publish]  (minimal: release/acquire)
//                  The bitmap operations in this file plus the WaiterRegistry
//                  presence bitmap and its segment-summary mask. A waiter
//                  inserts entries (release) before its registration
//                  transaction begins; that transaction writes slot words, so
//                  its commit performs a [clock-chain] RMW. A committing
//                  writer's own commit RMW reads the chain, so if the
//                  registration's RMW precedes the writer's in the clock's
//                  modification order, the writer's increment synchronizes
//                  with the registration's and the insert — sequenced before
//                  it — is visible to the writer's acquire scan (write-read
//                  coherence: a load ordered after the insert by
//                  happens-before cannot read an older bitmap word). If
//                  instead the writer's RMW serializes first, the
//                  registration's double-check runs against the writer's
//                  committed state and the waiter never sleeps on a satisfied
//                  predicate. Either way no wakeup is lost — seq_cst added
//                  nothing but a total order the argument never used.
//                  One backend path commits with NO clock RMW: sim-HTM
//                  serial-mode commits (SimHtm::CommitTx, d.htm_serial).
//                  There the post-commit scan is instead ordered by the
//                  seq_cst [serial-token] handshake: the serial entrant's
//                  drain loop reads the registration commit's seq_cst
//                  commit-flag = 0 store, or — when the registrant starts
//                  while the writer is already serial — the registrant's
//                  BeginTx poll reads ExitSerial's token store and its
//                  double-check runs against the writer's committed state.
//                  Either leg orders waiter inserts and the writer's scan
//                  without the clock chain, so the release/acquire bitmap
//                  endpoints stay sufficient on this path too.
//                  The registry's summary mask adds one wrinkle: clearing a
//                  summary bit when a segment drains races a concurrent
//                  re-registration, so the clear runs under a seqlock-guarded
//                  repair (clear, rescan the segment mask, conditionally
//                  re-set) and readers retry odd/changed generations — see
//                  WaiterRegistry::HasWaiters for the interleaving argument.
//
//  [serial-token]  (minimal: seq_cst)
//                  sim-HTM's Dekker pair: each committer's per-thread
//                  commit flag (its QuiesceTable slot's `committing` word)
//                  vs. the serial token/sequence words. All four accesses
//                  are seq_cst so either the serial entrant sees the flag
//                  (and drains) or the committer sees the token (and
//                  aborts) — the classic store-buffering case both being
//                  acquire/release would not exclude.
//                  The drain stops at the QuiesceTable's registered-tid
//                  bound, read after the entrant's token store. A thread
//                  raises the bound at registration, before its first
//                  flag store, so a committer whose flag the entrant is
//                  obliged to see has a bound raise the entrant sees too;
//                  a thread above the bound the entrant read registered
//                  after it, and its flag store's re-check sees the token.
//                  The bound's release/acquire accesses ride the anchors
//                  and add no seq_cst.
//
//  [retry-dekker]  (minimal: seq_cst)
//                  Retry-Orig's store-buffering handshake, fence-anchored:
//                  a retrying waiter raises `count_` (relaxed RMW), issues a
//                  seq_cst fence, then validates its read orecs; a committing
//                  writer releases its write orecs, issues its commit-side
//                  seq_cst fence (tm_system.cc), then peeks `count_`
//                  (relaxed). The two fences are ordered in S, so either the
//                  waiter's validation sees the writer's orec bump (and does
//                  not sleep) or the writer's peek sees the raised count (and
//                  scans the sleeper list). The count and peek themselves
//                  ride the fences at relaxed — the fences are the edge.
//                  The commit path's earlier count_ peek (inside
//                  SnapshotCommitOrecsIfNeeded) runs BEFORE the writer's
//                  fence and is outside this edge entirely: the SB outcome
//                  may hide a racing registration from it. It only gates
//                  copying the write-orec set; when the post-fence peek then
//                  finds waiters with no snapshot, Commit() falls back to
//                  RetryOrigRegistry::WakeAllSleepers (spurious wakeups, not
//                  lost ones).
//
//  [quiesce-dekker] (minimal: seq_cst)
//                  Privatization-safety Dekker between a raw snapshot reader
//                  and a committing writer: the reader publishes its quiesce
//                  slot (seq_cst store) then samples orec words; the
//                  committer locks/bumps its orecs, performs the seq_cst
//                  [clock-chain] Increment, then scans the quiesce slots.
//                  Either the reader's sample sees the locked/bumped orec
//                  (and falls back or aborts), or the committer's scan sees
//                  the published slot (and waits for the reader) — the
//                  store-buffering exclusion that gates memory reclamation.
//                  The scan visits only slots below the QuiesceTable's
//                  registered-tid bound, loaded after the Increment. The
//                  reader raised the bound at registration, sequenced
//                  before its first seq_cst SetActive, so a scan obliged to
//                  see the reader's slot also sees a bound covering it —
//                  the argument that lets the scan skip null segments
//                  ([seg-publish]). A scan that reads a lower bound is one
//                  the reader's clock sample is ordered after (start ≥ end).
//                  The bound only grows (recycled tids stay below it) and
//                  its release/acquire accesses add no seq_cst.
//
//  [seg-publish]   (minimal: release/acquire)
//                  Lazy publication of 256-tid segment control blocks
//                  (WaiterRegistry, WakeIndex, QuiesceTable): the allocating
//                  thread zero-initializes the block, then installs its
//                  pointer with a release (acq_rel) directory CAS; every
//                  reader loads directory entries with acquire. The pairing
//                  guarantees a reader that sees the pointer sees a fully
//                  initialized block. A null entry is itself information —
//                  "no tid of this range ever registered" — so scans skip
//                  null segments without ordering. Losing CAS racers delete
//                  their unpublished block and adopt the winner's; the
//                  protocol checker's OnSegmentPublished hook asserts each
//                  index is published at most once per structure.
//                  QuiesceTable's walks go one step further and stop at the
//                  registered-tid bound, not at the last published segment:
//                  the same "sequenced before the owner's first seq_cst
//                  store" argument covers a tid above the bound (see
//                  [quiesce-dekker] and [serial-token]); the protocol
//                  checker's OnQuiesceActive hook asserts no slot is
//                  published at or above it.
//
//  [park-handoff]  (minimal: release/acquire)
//                  ParkingLot wake-token delivery: a claiming waker posts the
//                  token with a release fetch_or (ParkingLot::Post) strictly
//                  after the claim transaction commits and the wake-post
//                  stamp is written; the spot's owner consumes it with an
//                  acquire RMW (ConsumeToken/ParkEither/ParkUntil). The pair
//                  makes the committed claim and the stamp visible to the
//                  woken waiter — the same contract the retired per-slot
//                  semaphore's internal post/wait pair used to provide. The
//                  futex/condvar machinery underneath only adds sleep/wake
//                  and carries no data ordering of its own.
//                  Sleeper bit: the owner CASes kSleeper into the same word
//                  just before it blocks, and Post/PostTimeout make the wake
//                  syscall only when their fetch_or returned that bit. The
//                  CAS is relaxed and adds no seq_cst: it and the fetch_or
//                  are RMWs on one location, so its modification order
//                  decides — either the fetch_or reads the bit (and wakes),
//                  or the CAS fails on the token (and the owner re-checks
//                  instead of blocking) — and the futex, or the bucket
//                  mutex, re-checks the word before sleeping. Before
//                  blocking the owner also spins on the word (relaxed polls
//                  riding this edge) for up to 20 us, gated on an EWMA of
//                  its spot's wait lengths, so short waits never reach the
//                  kernel on either side.
//
//  [wheel-tick]    (minimal: release/acquire)
//                  TimerWheel timeout-token delivery: the ticker posts the
//                  timeout token with a release fetch_or
//                  (ParkingLot::PostTimeout) and the timed waiter consumes it
//                  with an acquire RMW (ParkEither). Stale and spurious fires
//                  are benign by construction: the epoch filter drops most,
//                  and a waiter woken with `now < deadline` re-arms and
//                  re-parks (deschedule.cc), so the edge only needs to carry
//                  the token itself, never timing data.
// ---------------------------------------------------------------------------

class WakeIndex {
 public:
  // Hard ceiling on the shard count. The writer-side scratch shard set is a
  // stack array sized for it (kMaxShards / 64 words = 512 bytes), which is
  // what keeps ForEachCandidate allocation-free at any configured count.
  static constexpr int kMaxShards = 4096;

  // `num_shards` must be a power of two in [1, kMaxShards].
  WakeIndex(int max_threads, int num_shards);
  ~WakeIndex();

  WakeIndex(const WakeIndex&) = delete;
  WakeIndex& operator=(const WakeIndex&) = delete;

  int shard_count() const { return num_shards_; }
  // Words per shard-set bitmap (= ceil(num_shards / 64)).
  int shard_words() const { return shard_words_; }

  // Optional dynamic protocol checker (TCS_PROTOCOL_CHECKS builds): the owning
  // TmSystem attaches its checker so Add*/Remove report registration-balance
  // transitions and segment publication stays add-once. Standalone instances
  // (unit tests) leave it unset.
  void AttachProtocolChecker(ProtocolChecker* checker) { checker_ = checker; }

  // Shard covering an orec. Stable for the index's lifetime, so the waiter and
  // writer sides always agree.
  int ShardOf(const Orec* o) const {
    if (shards_log2_ == 0) {
      return 0;
    }
    auto a = reinterpret_cast<std::uintptr_t>(o);
    return static_cast<int>((static_cast<std::uint64_t>(a >> 3) *
                             0x9E3779B97F4A7C15ULL) >>
                            (64 - shards_log2_));
  }

  // Waiter side. All three calls for a given tid are made by the owning thread
  // only, before its registration transaction (Add*) or after deregistering
  // (Remove); tid reuse across threads is ordered by descriptor recycling.

  // Registers tid under the shard of each given orec (duplicates collapse).
  // An empty orec list falls back to AddGlobal: an empty shard set would never
  // be covered by any writer's shard union, stranding the waiter until timeout
  // (or forever) — the caller should account it as a global deschedule.
  void AddIndexed(int tid, const Orec* const* orecs, std::size_t n) {
    if (n == 0) {
      AddGlobal(tid);
      return;
    }
    IndexSegment& seg = EnsureSegment(tid >> kCondSyncSegmentShift);
    const int rel = tid & (kCondSyncSegmentSize - 1);
    std::uint64_t* set = PerTidShards(seg, rel);
    for (int sw = 0; sw < shard_words_; ++sw) {
      set[sw] = 0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      int s = ShardOf(orecs[i]);
      set[s >> 6] |= std::uint64_t{1} << (s & 63);
    }
    const std::uint64_t bit = std::uint64_t{1} << (rel % 64);
    const int w = rel / 64;
    for (int sw = 0; sw < shard_words_; ++sw) {
      std::uint64_t word = set[sw];
      while (word != 0) {
        int s = sw * 64 + __builtin_ctzll(word);
        word &= word - 1;
        // mo: release — [wake-publish]: the insert precedes the registration
        // transaction's [clock-chain] RMW in program order; a writer whose
        // commit RMW serializes later therefore sees it (release-sequence
        // argument in the glossary). The release also pairs directly with
        // the scan's acquire when the scan reads-from this very insert.
        ShardWord(seg, s, w).fetch_or(bit, std::memory_order_release);
      }
    }
    TCS_PROTO(if (checker_ != nullptr) checker_->OnWakeRegister(tid, true));
  }

  // Registers tid on the global fallback list (predicate with no address list:
  // every committing writer must consider it).
  void AddGlobal(int tid) {
    IndexSegment& seg = EnsureSegment(tid >> kCondSyncSegmentShift);
    const int rel = tid & (kCondSyncSegmentSize - 1);
    seg.per_tid_global[rel] = 1;
    // mo: release — [wake-publish]: same release-sequence argument as the
    // shard insert in AddIndexed; the global list is scanned by every writer.
    seg.global[rel / 64].fetch_or(std::uint64_t{1} << (rel % 64),
                                  std::memory_order_release);
    TCS_PROTO(if (checker_ != nullptr) checker_->OnWakeRegister(tid, false));
  }

  // Clears every entry tid holds, indexed or global — exactly what the
  // bookkeeping says the owner added, nothing else. Idempotent, so the single
  // deregistration point covers wakeup, timeout, and the no-sleep double-check
  // path alike — a timed wait that expires leaves nothing behind.
  void Remove(int tid) {
    TCS_PROTO(if (checker_ != nullptr) checker_->OnWakeDeregister(tid));
    IndexSegment* seg = SegmentOf(tid >> kCondSyncSegmentShift);
    if (seg == nullptr) {
      return;  // Never registered: nothing to clear.
    }
    const int rel = tid & (kCondSyncSegmentSize - 1);
    std::uint64_t* set = PerTidShards(*seg, rel);
    const std::uint64_t clear = ~(std::uint64_t{1} << (rel % 64));
    const int w = rel / 64;
    for (int sw = 0; sw < shard_words_; ++sw) {
      std::uint64_t word = set[sw];
      set[sw] = 0;
      while (word != 0) {
        int s = sw * 64 + __builtin_ctzll(word);
        word &= word - 1;
        // mo: relaxed — [wake-publish] rider: per-word coherence already
        // keeps insert/clear RMWs on one bitmap word totally ordered, and a
        // scan that reads the pre-clear value only produces a spurious
        // candidate, which the transactional wake check rejects (asleep==0).
        ShardWord(*seg, s, w).fetch_and(clear, std::memory_order_relaxed);
      }
    }
    if (seg->per_tid_global[rel] != 0) {
      seg->per_tid_global[rel] = 0;
      // mo: relaxed — [wake-publish] rider: same spurious-candidate argument
      // as the shard clear above.
      seg->global[w].fetch_and(clear, std::memory_order_relaxed);
    }
  }

  // Writer side, two-phase: BuildShardSet folds a write set's orecs into a
  // caller-owned shard-set bitmap of shard_words() words, and
  // ForEachCandidateIn visits the candidates that bitmap covers. Splitting
  // the phases lets a committing writer build the set once into per-thread
  // scratch (reused commit to commit — no per-pass rebuild or re-zeroing of a
  // maximal stack array) and then drive any number of candidate passes over
  // it, which is what the batched wake path does.
  void BuildShardSet(const Orec* const* orecs, std::size_t n,
                     std::uint64_t* shard_set) const {
    for (int sw = 0; sw < shard_words_; ++sw) {
      shard_set[sw] = 0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      int s = ShardOf(orecs[i]);
      shard_set[s >> 6] |= std::uint64_t{1} << (s & 63);
    }
  }

  // Invokes fn(tid) once for every candidate of a prebuilt shard set — each
  // waiter registered under a covered shard, then each global-fallback
  // waiter. fn returns false to stop early. Shard-indexed candidates are
  // visited first: their waitsets name addresses the write set's orecs
  // actually cover, so under wake_single (which stops at the first wakeup)
  // the writer prefers a waiter it probably satisfied over an
  // arbitrary-predicate waiter it merely might have. Zero allocation; cost is
  // O(allocated segments × (1 + distinct shards touched)). Callers with a
  // registry summary in hand should prefer ForEachCandidateInSegments, which
  // walks only the populated segments.
  template <typename Fn>
  void ForEachCandidateIn(const std::uint64_t* shard_set, Fn&& fn) {
    ForEachCandidateInSegments(shard_set, nullptr, 0, std::forward<Fn>(fn));
  }

  // Masked variant: visits only segments whose bit is set in `seg_summary`
  // (seg_summary_words words; a WaiterRegistry::SnapshotSummary copy). Sound
  // because a waiter's index insert and its registry MarkRegistered both
  // precede its registration commit: any waiter a writer's commit serialized
  // after has its summary bit set in a stable snapshot, so an unset bit — or
  // a null index segment — proves no relevant waiter, never hides one.
  // Passing seg_summary == nullptr visits every allocated segment.
  template <typename Fn>
  void ForEachCandidateInSegments(const std::uint64_t* shard_set,
                                  const std::uint64_t* seg_summary,
                                  int seg_summary_words, Fn&& fn) {
    // Pass 1: shard-indexed candidates, ascending tid.
    for (int si = 0; si < num_segments_; ++si) {
      if (seg_summary != nullptr && !SummaryHas(seg_summary, seg_summary_words,
                                                si)) {
        continue;
      }
      // mo: acquire — [seg-publish]: pairs with the allocator's release
      // directory CAS; a non-null pointer implies a fully initialized block.
      IndexSegment* seg = segments_[si].load(std::memory_order_acquire);
      if (seg == nullptr) {
        continue;
      }
      for (int w = 0; w < kCondSyncSegmentWords; ++w) {
        std::uint64_t cand = 0;
        for (int sw = 0; sw < shard_words_; ++sw) {
          std::uint64_t ss = shard_set[sw];
          while (ss != 0) {
            int s = sw * 64 + __builtin_ctzll(ss);
            ss &= ss - 1;
            // mo: acquire — [wake-publish]: the writer-side scan, ordered
            // after its commit's [clock-chain] RMW; pairs with the waiter's
            // release insert in AddIndexed.
            cand |= ShardWord(*seg, s, w).load(std::memory_order_acquire);
          }
        }
        while (cand != 0) {
          int bit = __builtin_ctzll(cand);
          cand &= cand - 1;
          if (!fn(si * kCondSyncSegmentSize + w * 64 + bit)) {
            return;
          }
        }
      }
    }
    // Pass 2: global-fallback candidates, ascending tid.
    for (int si = 0; si < num_segments_; ++si) {
      if (seg_summary != nullptr && !SummaryHas(seg_summary, seg_summary_words,
                                                si)) {
        continue;
      }
      // mo: acquire — [seg-publish]: pairs with the allocator's release
      // directory CAS (see pass 1).
      IndexSegment* seg = segments_[si].load(std::memory_order_acquire);
      if (seg == nullptr) {
        continue;
      }
      for (int w = 0; w < kCondSyncSegmentWords; ++w) {
        // mo: acquire — [wake-publish]: pairs with the waiter's release
        // insert in AddGlobal, same clock-chain argument as the shard scan.
        std::uint64_t cand = seg->global[w].load(std::memory_order_acquire);
        // A tid registers either indexed or global, never both, so masking
        // out the shard union usually suppresses a racing re-registration
        // between the passes. It is best-effort, NOT a dedup guarantee: a tid
        // emitted by the shard pass that deregistered and re-registered
        // globally before this mask is sampled has already cleared its shard
        // bits, so the mask misses it and the global pass emits it a second
        // time. Callers that need distinct tids must dedup themselves
        // (WakeWaiters keeps a seen bitmap); claiming stays correct
        // regardless because a second claim attempt observes asleep == 0 and
        // skips.
        for (int sw = 0; sw < shard_words_; ++sw) {
          std::uint64_t ss = shard_set[sw];
          while (ss != 0) {
            int s = sw * 64 + __builtin_ctzll(ss);
            ss &= ss - 1;
            // mo: relaxed — [wake-publish] rider: best-effort de-dup mask of
            // the global pass (see the comment above); a stale word only lets
            // a duplicate candidate through, which callers dedup anyway.
            cand &= ~ShardWord(*seg, s, w).load(std::memory_order_relaxed);
          }
        }
        while (cand != 0) {
          int bit = __builtin_ctzll(cand);
          cand &= cand - 1;
          if (!fn(si * kCondSyncSegmentSize + w * 64 + bit)) {
            return;
          }
        }
      }
    }
  }

  // One-shot convenience: build the shard set into stack scratch and visit it.
  template <typename Fn>
  void ForEachCandidate(const Orec* const* orecs, std::size_t n, Fn&& fn) {
    std::uint64_t shard_set[kMaxShardWords];
    BuildShardSet(orecs, n, shard_set);
    ForEachCandidateIn(shard_set, std::forward<Fn>(fn));
  }

  // --- introspection (tests, leak checks, metrics) ---

  // True if tid holds any entry, indexed or global.
  bool HasEntries(int tid) const {
    const IndexSegment* seg = SegmentOf(tid >> kCondSyncSegmentShift);
    if (seg == nullptr) {
      return false;
    }
    const int rel = tid & (kCondSyncSegmentSize - 1);
    if (seg->per_tid_global[rel] != 0) {
      return true;
    }
    const std::uint64_t* set = PerTidShards(*seg, rel);
    for (int sw = 0; sw < shard_words_; ++sw) {
      if (set[sw] != 0) {
        return true;
      }
    }
    return false;
  }

  bool IsGlobal(int tid) const {
    const IndexSegment* seg = SegmentOf(tid >> kCondSyncSegmentShift);
    return seg != nullptr &&
           seg->per_tid_global[tid & (kCondSyncSegmentSize - 1)] != 0;
  }

  // Number of distinct shards tid registered under.
  int ShardSetPopulation(int tid) const {
    const IndexSegment* seg = SegmentOf(tid >> kCondSyncSegmentShift);
    if (seg == nullptr) {
      return 0;
    }
    const std::uint64_t* set =
        PerTidShards(*seg, tid & (kCondSyncSegmentSize - 1));
    int n = 0;
    for (int sw = 0; sw < shard_words_; ++sw) {
      n += __builtin_popcountll(set[sw]);
    }
    return n;
  }

  // True iff tid registered under shard s.
  bool InShardSet(int tid, int s) const {
    const IndexSegment* seg = SegmentOf(tid >> kCondSyncSegmentShift);
    if (seg == nullptr) {
      return false;
    }
    const std::uint64_t* set =
        PerTidShards(*seg, tid & (kCondSyncSegmentSize - 1));
    return (set[s >> 6] & (std::uint64_t{1} << (s & 63))) != 0;
  }

  // Conservative count of tids present in shard `s` / on the global list.
  // Precondition for an exact answer: the caller must externally order every
  // concurrent Add*/Remove before the call (join the waiter threads, or
  // otherwise sequence a barrier) — the loads are acquire, so a count taken
  // mid-run is stale-but-ordered at best, and nothing here enforces the
  // precondition. Tests and post-join leak checks satisfy it; do not assert
  // on these from in-flight threads.
  int ShardPopulation(int s) const;
  int GlobalPopulation() const;

  // True iff no shard and no global word holds any bit (leak detector). Same
  // precondition as the population accessors: only meaningful once every
  // waiter thread's final Remove has been ordered before this call (thread
  // join); a mid-run call may race registrations and flicker.
  bool Empty() const;

  // Bytes currently committed to this index: the directory plus every
  // allocated segment's slabs. Feeds the memory-per-waiter metric.
  std::size_t FootprintBytes() const;

  // Number of segments with an allocated control block.
  int AllocatedSegments() const;

 private:
  static constexpr int kMaxShardWords = kMaxShards / 64;

  // One 256-tid segment control block: a shard-major bitmap slab (shard s,
  // word w at bits[s * kCondSyncSegmentWords + w]), the segment's global-
  // fallback words, and owner-thread bookkeeping. Adjacent shards share cache
  // lines within a segment — benign, because cross-thread traffic on one
  // segment is already bounded to its 256 tids and the flat layout keeps the
  // slab ~8x smaller than per-shard line padding would.
  struct alignas(kCacheLineBytes) IndexSegment {
    std::unique_ptr<std::atomic<std::uint64_t>[]> bits;
    std::atomic<std::uint64_t> global[kCondSyncSegmentWords];
    // Owner-thread-only bookkeeping of what each tid registered (one
    // shard_words_-word bitmap per tid), so Remove can clear exactly those
    // entries without scanning all shards.
    std::unique_ptr<std::uint64_t[]> per_tid_shards;
    std::uint8_t per_tid_global[kCondSyncSegmentSize];
  };

  static bool SummaryHas(const std::uint64_t* summary, int words, int si) {
    int w = si >> 6;
    return w < words && (summary[w] & (std::uint64_t{1} << (si & 63))) != 0;
  }

  std::atomic<std::uint64_t>& ShardWord(IndexSegment& seg, int shard,
                                        int word) const {
    return seg.bits[static_cast<std::size_t>(shard) * kCondSyncSegmentWords +
                    word];
  }
  std::uint64_t* PerTidShards(IndexSegment& seg, int rel) const {
    return &seg.per_tid_shards[static_cast<std::size_t>(rel) * shard_words_];
  }
  const std::uint64_t* PerTidShards(const IndexSegment& seg, int rel) const {
    return &seg.per_tid_shards[static_cast<std::size_t>(rel) * shard_words_];
  }

  // Returns the segment's control block, allocating and publishing it on
  // first touch (waiter side). SegmentOf is the read-only variant: null means
  // no tid of that range ever registered.
  IndexSegment& EnsureSegment(int si);
  IndexSegment* SegmentOf(int si) const {
    // mo: acquire — [seg-publish]: pairs with the allocator's release
    // directory CAS; a non-null pointer implies a fully initialized block.
    return segments_[si].load(std::memory_order_acquire);
  }

  int capacity_;
  int num_segments_;
  int num_shards_;
  int shards_log2_;
  int shard_words_;
  // Directory of lazily allocated segments; entries are owned (deleted in the
  // destructor) and published at most once via release-CAS.
  std::unique_ptr<std::atomic<IndexSegment*>[]> segments_;
  ProtocolChecker* checker_ = nullptr;
};

}  // namespace tcs

#endif  // TCS_CONDSYNC_WAKE_INDEX_H_
