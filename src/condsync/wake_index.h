// The waiter table: Algorithm 4's `waiters` list, one record per descheduled
// thread, indexed so that a committing writer notifies only the waiters whose
// published waitsets its write set could have changed, instead of re-running
// every registered waiter's predicate.
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
// One record per waiter. A waiter owns a WaiterSlot (the transactional
// `active`/`asleep` words and its published ⟨fn, args⟩), exactly one entry —
// shard bits, or a bit on the global fallback list — and a presence bit that
// is set with the entry and cleared with it, so "registered" and "has an
// entry" are the same fact. Slot state is read and written through the TM
// itself — registration and wake checks are transactions, exactly as
// Algorithm 4 presents them — so the TM's conflict detection serializes a
// waiter's registration against writer commits and closes the lost-wakeup
// window.
//
// Segmented layout (capacity tier). The tid dimension lives in 256-tid
// segments of a SegmentDirectory (src/common/segment_directory.h); each
// segment owns its tids' slots and presence mask, its shard→tid bitmap slab,
// global-fallback words, and owner-side bookkeeping, so all of it
// materializes only for tid ranges that actually wait. A top-level *summary*
// keeps one bit per possibly-occupied segment. A writer that committed must
// not pay a scan when nobody waits, and at capacity-tier thread counts it
// must not even pay a walk proportional to max_threads: HasWaiters reads
// ceil(num_segments/64) summary words, and a candidate walk visits
// popcount(summary) segments — not every directory entry, and not a
// 4096-shard flat walk.
//
// Summary repair. Clearing a summary bit is the one delicate step: the last
// waiter leaving a segment races a new waiter entering it, and a writer that
// reads the summary exactly between the leaver's clear and its repair re-set
// would miss the newcomer — a lost wakeup, because writers scan once (they are
// not retrying sleepers). The repair therefore runs under a seqlock:
// generation goes odd, the bit is cleared (acq_rel), the segment's presence
// mask is rescanned, the bit is conditionally re-set, generation goes even.
// Readers that would answer "no waiters" (or skip a segment) validate the
// generation and retry, pausing between tries; readers that see a set bit
// may act on it at once — a stale set bit is merely conservative.
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
// Publication ordering. A waiter sets its entry, then its presence bit, then
// its segment's summary bit (each release) *before* its registration
// transaction begins, and a writer reads them (acquire) only after its
// commit's [clock-chain] RMW, so "registration serialized before my commit"
// implies "I see all three" — see the [wake-publish] glossary entry below for
// the full release-sequence argument that let these drop from seq_cst.
// Segment publication composes with it: the waiter's directory CAS precedes
// its inserts, so a writer that would see the inserts sees the segment
// pointer first ([seg-publish]).
#ifndef TCS_CONDSYNC_WAKE_INDEX_H_
#define TCS_CONDSYNC_WAKE_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "src/common/assert.h"
#include "src/common/cache_line.h"
#include "src/common/cpu.h"
#include "src/common/parking_lot.h"
#include "src/common/segment_directory.h"
#include "src/common/spin_lock.h"
#include "src/tm/protocol_checker.h"
#include "src/tm/tx_desc.h"
#include "src/tm/word.h"

namespace tcs {

// ---------------------------------------------------------------------------
// Appendix: the happens-before edge glossary for `// mo:` annotations.
//
// Every std::memory_order argument in this codebase carries a `// mo:` comment
// naming its pairing partner; the recurring cross-file edges are named here so
// the comments can reference them by label. tools/tm_analyze.py reads this
// appendix: it enforces the comments' presence, parses every annotation into
// a cross-file edge graph keyed by these tags, and verifies each edge is
// well-formed.
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
//                  Retry-Orig rests on the same split. Its waiter raises
//                  `count_` (relaxed), runs one clock RMW Rw, then loads
//                  its read orecs (acquire) under the waiting lock; a
//                  writer locks its write orecs, runs its commit RMW Rc,
//                  peeks `count_` (relaxed), releases, then wakes under the
//                  waiting lock. Rw first: the peek sees the raise, and the
//                  wake posts the sleeper or precedes its validation, which
//                  sees the release. Rc first: the validation sees the
//                  writer's lock or a later version. The `count_`
//                  operations ride this edge (retry_orig.h). sim-HTM never
//                  runs Retry-Orig; its hardware commits peek after their
//                  RMW too.
//                  (The Increment itself stays seq_cst for the committer leg
//                  of [quiesce-dekker]; the *edge* needs only acq_rel.)
//
//  [wake-publish]  (minimal: release/acquire)
//                  The bitmap operations in this file: a waiter's entry
//                  (shard or global bits), its presence bit and its
//                  segment's summary bit. A waiter sets all three (release)
//                  before its registration transaction begins; that
//                  transaction writes slot words, so its commit performs a
//                  [clock-chain] RMW. A committing writer's own commit RMW
//                  reads the chain, so if the registration's RMW precedes
//                  the writer's in the clock's modification order, the
//                  writer's increment synchronizes with the registration's
//                  and the insert — sequenced before it — is visible to the
//                  writer's acquire scan (write-read
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
//                  The summary adds one wrinkle: clearing a summary bit when
//                  a segment drains races a concurrent registration, so the
//                  clear runs under a seqlock-guarded repair (clear, rescan
//                  the segment's presence mask, conditionally re-set) and
//                  readers retry odd/changed generations — see
//                  WakeIndex::HasWaiters and RepairSummary for the
//                  interleaving argument.
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
//                  Lazy publication of 256-tid segment blocks, implemented
//                  once in SegmentDirectory (src/common/segment_directory.h)
//                  for the WakeIndex and the QuiesceTable: Ensure
//                  builds the block, then installs its pointer with a
//                  release (acq_rel) directory CAS; Get and ForEach load
//                  entries with acquire. The pairing guarantees a reader
//                  that sees the pointer sees a fully initialized block. A
//                  null entry is itself information — "no tid of this range
//                  ever registered" — so scans skip null segments without
//                  ordering. Losing CAS racers delete their unpublished block
//                  and adopt the winner's; the index's on_publish hook
//                  reports to the protocol checker's OnSegmentPublished,
//                  which asserts each segment is published at most once.
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
//                  acquire RMW (ConsumeToken/ParkEither). The pair
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

class WakeIndex {
 public:
  // Hard ceiling on the shard count. The writer-side scratch shard set is a
  // stack array sized for it (kMaxShards / 64 words = 512 bytes), which is
  // what keeps ForEachCandidate allocation-free at any configured count.
  static constexpr int kMaxShards = 4096;

  // `num_shards` must be a power of two in [1, kMaxShards].
  WakeIndex(int max_threads, int num_shards);

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

  // The slot for `tid`, allocating its segment on first touch. Writers may
  // call this for candidate tids; the directory resolves any race.
  WaiterSlot& slot(int tid) {
    return EnsureSegment(tid >> kSegmentShift).slots[tid & (kSegmentSize - 1)];
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
    const int si = tid >> kSegmentShift;
    IndexSegment& seg = EnsureSegment(si);
    const int rel = tid & (kSegmentSize - 1);
    std::uint64_t* set = PerTidShards(seg, rel);
    BuildShardSet(orecs, n, set);
    const std::uint64_t bit = std::uint64_t{1} << (rel % 64);
    const int w = rel / 64;
    ForEachShardIn(set, [&](int s) {
      // mo: release — [wake-publish]: the insert precedes the registration
      // transaction's [clock-chain] RMW in program order; a writer whose
      // commit RMW serializes later therefore sees it (release-sequence
      // argument in the glossary). The release also pairs directly with
      // the scan's acquire when the scan reads-from this very insert.
      ShardWord(seg, s, w).fetch_or(bit, std::memory_order_release);
    });
    MarkPresent(seg, si, rel);
    TCS_PROTO(if (checker_ != nullptr) checker_->OnWakeRegister(tid, true));
  }

  // Registers tid on the global fallback list (predicate with no address list:
  // every committing writer must consider it).
  void AddGlobal(int tid) {
    const int si = tid >> kSegmentShift;
    IndexSegment& seg = EnsureSegment(si);
    const int rel = tid & (kSegmentSize - 1);
    // mo: release — [wake-publish]: same release-sequence argument as the
    // shard insert in AddIndexed; the global list is scanned by every writer.
    seg.global[rel / 64].fetch_or(std::uint64_t{1} << (rel % 64),
                                  std::memory_order_release);
    MarkPresent(seg, si, rel);
    TCS_PROTO(if (checker_ != nullptr) checker_->OnWakeRegister(tid, false));
  }

  // Clears tid's entry, indexed or global, and its presence bit — exactly
  // what the bookkeeping says the owner added, nothing else. Idempotent, so
  // the single deregistration point covers wakeup, timeout, and the no-sleep
  // double-check path alike — a timed wait that expires leaves nothing
  // behind. The last waiter to leave a segment repairs its summary bit.
  void Remove(int tid);

  // Conservative "anyone possibly waiting?" peek for the writer fast path:
  // a summary-word scan, independent of max_threads. A set bit may return
  // true immediately (stale set bits are conservative — the transactional
  // wake check rejects the candidates); an all-zero scan is only trusted if
  // no summary repair overlapped it, because a repair transiently clears a
  // bit it may be about to re-set (see RepairSummary).
  bool HasWaiters() const {
    for (int spins = 0;; PauseForRepair(spins)) {
      // mo: acquire — [wake-publish] rider: seqlock generation pre-read; the
      // summary word loads below carry the edge, this read only brackets
      // them for the all-zero validation.
      std::uint64_t g1 = repair_gen_.load(std::memory_order_acquire);
      for (int w = 0; w < summary_words_; ++w) {
        // mo: acquire — [wake-publish]: the peek runs after the writer's
        // commit RMW on the version clock; [clock-chain]'s release sequence
        // carries the waiter's release summary set (sequenced before its
        // registration commit) to this load, closing the lost-wakeup window.
        // Reading a repair's transient clear (an acq_rel RMW) instead
        // synchronizes with the repair, forcing the generation re-read below
        // to observe its odd generation and retry.
        if (summary_[w].load(std::memory_order_acquire) != 0) {
          return true;
        }
      }
      // mo: relaxed — [wake-publish] rider: seqlock validation re-read,
      // ordered after the summary loads by their acquire; it observes an
      // odd/advanced generation iff a repair's transient clear could have
      // hidden a bit from this scan.
      if (repair_gen_.load(std::memory_order_relaxed) == g1 && (g1 & 1) == 0) {
        return false;
      }
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

  // Invokes fn(tid) for every candidate of a prebuilt shard set — each
  // waiter registered under a covered shard, then each global-fallback
  // waiter, ascending tid within each pass. Zero allocation; cost is
  // O(summary words + occupied segments × (1 + distinct shards touched)).
  // Each pass walks the set bits of a repair-stable summary snapshot: any
  // waiter a writer's commit serialized after has its summary bit set in
  // such a snapshot ([wake-publish] + the seqlock retry), so an unset bit
  // proves no relevant waiter, never hides one.
  template <typename Fn>
  void ForEachCandidateIn(const std::uint64_t* shard_set, Fn&& fn) {
    // Pass 1: shard-indexed candidates.
    ForEachOccupiedSegment([&](int si, IndexSegment& seg) {
      for (int w = 0; w < kSegmentWords; ++w) {
        std::uint64_t cand = 0;
        ForEachShardIn(shard_set, [&](int s) {
          // mo: acquire — [wake-publish]: the writer-side scan, ordered
          // after its commit's [clock-chain] RMW; pairs with the waiter's
          // release insert in AddIndexed.
          cand |= ShardWord(seg, s, w).load(std::memory_order_acquire);
        });
        EmitTids((si << kSegmentShift) + w * 64, cand, fn);
      }
    });
    // Pass 2: global-fallback candidates.
    ForEachOccupiedSegment([&](int si, IndexSegment& seg) {
      for (int w = 0; w < kSegmentWords; ++w) {
        // mo: acquire — [wake-publish]: pairs with the waiter's release
        // insert in AddGlobal, same clock-chain argument as the shard scan.
        std::uint64_t cand = seg.global[w].load(std::memory_order_acquire);
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
        ForEachShardIn(shard_set, [&](int s) {
          // mo: relaxed — [wake-publish] rider: best-effort de-dup mask of
          // the global pass (see the comment above); a stale word only lets
          // a duplicate candidate through, which callers dedup anyway.
          cand &= ~ShardWord(seg, s, w).load(std::memory_order_relaxed);
        });
        EmitTids((si << kSegmentShift) + w * 64, cand, fn);
      }
    });
  }

  // One-shot convenience: build the shard set into stack scratch and visit it.
  template <typename Fn>
  void ForEachCandidate(const Orec* const* orecs, std::size_t n, Fn&& fn) {
    std::uint64_t shard_set[kMaxShardWords];
    BuildShardSet(orecs, n, shard_set);
    ForEachCandidateIn(shard_set, std::forward<Fn>(fn));
  }

  // Invokes fn(tid) for every possibly-registered tid, ascending: the
  // paper's global scan, for a writer whose write set is unknown. Iterates
  // allocated segments directly (presence masks, not the summary), so it
  // never depends on summary-repair timing.
  template <typename Fn>
  void ForEachRegistered(Fn&& fn) {
    segments_.ForEach([&](int si, IndexSegment& seg) {
      for (int w = 0; w < kSegmentWords; ++w) {
        // mo: acquire — [wake-publish]: the writer-side scan runs after the
        // commit's [clock-chain] RMW, whose release sequence carries every
        // registration's release presence set to this load.
        std::uint64_t tids = seg.present[w].load(std::memory_order_acquire);
        EmitTids((si << kSegmentShift) + w * 64, tids, fn);
      }
    });
  }

  // --- introspection (tests, leak checks, metrics) ---

  // True iff tid's presence bit is set, i.e. it holds an entry.
  bool IsRegistered(int tid) const {
    const IndexSegment* seg = segments_.Get(tid >> kSegmentShift);
    if (seg == nullptr) {
      return false;
    }
    const int rel = tid & (kSegmentSize - 1);
    // mo: acquire — [wake-publish]: test assertions run after a join or a
    // committed transition they arranged themselves; acquire pairs with the
    // release presence set and per-word coherence covers the clear.
    return (seg->present[rel / 64].load(std::memory_order_acquire) &
            (std::uint64_t{1} << (rel % 64))) != 0;
  }

  bool IsGlobal(int tid) const {
    const IndexSegment* seg = segments_.Get(tid >> kSegmentShift);
    if (seg == nullptr) {
      return false;
    }
    const int rel = tid & (kSegmentSize - 1);
    // mo: acquire — [wake-publish]: same pairing as IsRegistered.
    return (seg->global[rel / 64].load(std::memory_order_acquire) &
            (std::uint64_t{1} << (rel % 64))) != 0;
  }

  // Number of distinct shards tid registered under.
  int ShardSetPopulation(int tid) const {
    const IndexSegment* seg = segments_.Get(tid >> kSegmentShift);
    if (seg == nullptr) {
      return 0;
    }
    const std::uint64_t* set = PerTidShards(*seg, tid & (kSegmentSize - 1));
    int n = 0;
    for (int sw = 0; sw < shard_words_; ++sw) {
      n += __builtin_popcountll(set[sw]);
    }
    return n;
  }

  // True iff tid registered under shard s.
  bool InShardSet(int tid, int s) const {
    const IndexSegment* seg = segments_.Get(tid >> kSegmentShift);
    if (seg == nullptr) {
      return false;
    }
    const std::uint64_t* set = PerTidShards(*seg, tid & (kSegmentSize - 1));
    return (set[s >> 6] & (std::uint64_t{1} << (s & 63))) != 0;
  }

  // Conservative count of tids present in shard `s` / on the global list /
  // registered at all. Precondition for an exact answer: the caller must
  // externally order every concurrent Add*/Remove before the call (join the
  // waiter threads, or otherwise sequence a barrier) — the loads are
  // acquire, so a count taken mid-run is stale-but-ordered at best, and
  // nothing here enforces the precondition. Tests, park barriers and
  // post-join leak checks satisfy it or poll until it holds.
  int ShardPopulation(int s) const;
  int GlobalPopulation() const;
  int RegisteredCount() const;

  // True iff no presence, shard or global word holds any bit (leak
  // detector). Same precondition as the population accessors: only
  // meaningful once every waiter thread's final Remove has been ordered
  // before this call (thread join); a mid-run call may race registrations
  // and flicker.
  bool Empty() const;

  // Bytes currently committed to this table: the directory, the summary and
  // every allocated segment's block and slabs. Feeds the memory-per-waiter
  // metric.
  std::size_t FootprintBytes() const;

  // Number of segments with an allocated control block.
  int AllocatedSegments() const { return segments_.Allocated(); }

 private:
  static constexpr int kMaxShardWords = kMaxShards / 64;

  // One 256-tid segment control block. The first cache line holds the
  // presence and global-fallback words, which registrations write and writer
  // scans read; then the shard-major bitmap slab (shard s, word w at
  // bits[s * kSegmentWords + w]) and owner-thread bookkeeping, then the slot
  // array, each slot cache-line aligned. Adjacent shards share cache lines
  // within the slab — benign, because cross-thread traffic on one segment is
  // already bounded to its 256 tids and the flat layout keeps the slab ~8x
  // smaller than per-shard line padding would. Every word starts zero.
  struct alignas(kCacheLineBytes) IndexSegment {
    IndexSegment(int num_shards, int shard_words)
        : bits(std::make_unique<std::atomic<std::uint64_t>[]>(
              static_cast<std::size_t>(num_shards) * kSegmentWords)),
          per_tid_shards(std::make_unique<std::uint64_t[]>(
              static_cast<std::size_t>(kSegmentSize) * shard_words)) {}

    std::atomic<std::uint64_t> present[kSegmentWords]{};
    std::atomic<std::uint64_t> global[kSegmentWords]{};
    std::unique_ptr<std::atomic<std::uint64_t>[]> bits;
    // Owner-thread-only bookkeeping of each tid's shard set (one
    // shard_words_-word bitmap per tid), so Remove can clear exactly those
    // entries without scanning all shards. Empty for a global waiter.
    std::unique_ptr<std::uint64_t[]> per_tid_shards;
    WaiterSlot slots[kSegmentSize];
  };

  // Pause between seqlock retries, yielding after a bound: a repairer
  // preempted with an odd generation needs the CPU back to finish, which
  // committing writers spinning here would otherwise take (SpinLock::Lock
  // backs off the same way).
  static constexpr int kRepairSpinLimit = 128;
  static void PauseForRepair(int& spins) {
    if (++spins < kRepairSpinLimit) {
      CpuRelax();
    } else {
      CpuYield();
      spins = 0;
    }
  }

  // Summary word `sw` as read while no repair's transient clear could be
  // visible.
  std::uint64_t StableSummaryWord(int sw) const {
    for (int spins = 0;; PauseForRepair(spins)) {
      // mo: acquire — [wake-publish] rider: seqlock generation pre-read
      // (see HasWaiters).
      std::uint64_t g1 = repair_gen_.load(std::memory_order_acquire);
      if ((g1 & 1) != 0) {
        continue;  // Repair in flight; its transient clear may be visible.
      }
      // mo: acquire — [wake-publish]: same pairing as HasWaiters' scan.
      std::uint64_t word = summary_[sw].load(std::memory_order_acquire);
      // mo: relaxed — [wake-publish] rider: seqlock validation re-read,
      // ordered after the word load by its acquire (see HasWaiters).
      if (repair_gen_.load(std::memory_order_relaxed) == g1) {
        return word;
      }
    }
  }

  // Calls fn(si, seg) for every segment whose bit is set in a repair-stable
  // summary snapshot, ascending.
  template <typename Fn>
  void ForEachOccupiedSegment(Fn&& fn) {
    for (int sw = 0; sw < summary_words_; ++sw) {
      for (std::uint64_t segs = StableSummaryWord(sw); segs != 0;
           segs &= segs - 1) {
        const int si = sw * 64 + __builtin_ctzll(segs);
        if (IndexSegment* seg = segments_.Get(si)) {
          fn(si, *seg);
        }
      }
    }
  }

  // Sets tid's presence bit, then its segment's summary bit.
  void MarkPresent(IndexSegment& seg, int si, int rel) {
    // mo: release — [wake-publish]: the presence set follows the entry and
    // precedes the registration transaction's [clock-chain] RMW in program
    // order, like the entry itself.
    seg.present[rel / 64].fetch_or(std::uint64_t{1} << (rel % 64),
                                   std::memory_order_release);
    // mo: release — [wake-publish]: the summary bit follows the presence bit
    // and precedes the registration commit the same way; a racing summary
    // repair that clears it synchronizes with this RMW through the summary
    // word and re-sets it after rescanning the presence mask set above.
    summary_[si / 64].fetch_or(std::uint64_t{1} << (si % 64),
                               std::memory_order_release);
  }

  void RepairSummary(int si, const IndexSegment& seg);

  // Calls f(s) for every shard s in a shard_words()-word shard set.
  template <typename F>
  void ForEachShardIn(const std::uint64_t* shard_set, F&& f) const {
    for (int sw = 0; sw < shard_words_; ++sw) {
      for (std::uint64_t word = shard_set[sw]; word != 0; word &= word - 1) {
        f(sw * 64 + __builtin_ctzll(word));
      }
    }
  }

  // Calls fn(base + b) for every set bit b of `word`, ascending.
  template <typename Fn>
  static void EmitTids(int base, std::uint64_t word, Fn& fn) {
    for (; word != 0; word &= word - 1) {
      fn(base + __builtin_ctzll(word));
    }
  }

  std::atomic<std::uint64_t>& ShardWord(IndexSegment& seg, int shard,
                                        int word) const {
    return seg.bits[static_cast<std::size_t>(shard) * kSegmentWords + word];
  }
  std::uint64_t* PerTidShards(IndexSegment& seg, int rel) const {
    return &seg.per_tid_shards[static_cast<std::size_t>(rel) * shard_words_];
  }
  const std::uint64_t* PerTidShards(const IndexSegment& seg, int rel) const {
    return &seg.per_tid_shards[static_cast<std::size_t>(rel) * shard_words_];
  }

  // The segment's control block, built and published on first touch.
  IndexSegment& EnsureSegment(int si) {
    return segments_.Ensure(
        si,
        [&] {
          TCS_PROTO(if (checker_ != nullptr) checker_->OnSegmentPublished(si));
        },
        num_shards_, shard_words_);
  }

  int num_shards_;
  int shards_log2_;
  int shard_words_;
  SegmentDirectory<IndexSegment> segments_;
  const int summary_words_;
  // One bit per possibly-occupied segment; cleared only under the seqlock
  // repair.
  const std::unique_ptr<std::atomic<std::uint64_t>[]> summary_;
  // Seqlock generation for summary repairs: odd while a repair's transient
  // clear may be visible. repair_lock_ serializes repairs so odd/even stays
  // meaningful under concurrent drains of different segments.
  std::atomic<std::uint64_t> repair_gen_{0};
  SpinLock repair_lock_;
  ProtocolChecker* checker_ = nullptr;
};

}  // namespace tcs

#endif  // TCS_CONDSYNC_WAKE_INDEX_H_
