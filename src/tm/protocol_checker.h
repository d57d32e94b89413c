// Dynamic TM protocol checker: shadow-state verification of the runtime's core
// correctness protocols, compile-gated behind TCS_PROTOCOL_CHECKS.
//
// TSan finds data races; TCS_CHECK finds locally-visible broken invariants.
// Neither can see a *protocol* violation — a sequence of individually-racy-free
// steps that breaks a cross-thread contract, like an orec released at the wrong
// version (torn transactional state: a concurrent reader's double-check may
// accept a speculative value) or a wake-path park spot posted twice or before
// its claiming transaction committed (a double or lost wakeup). The checker
// maintains shadow state beside the real structures and verifies, at every hook
// point, that the observed transition is one the protocol allows:
//
//  * Orec lock/release discipline — an orec is acquired only from the unlocked
//    state, released only by its shadow owner, its version never decreases, and
//    each release kind lands exactly where its contract says: commits publish a
//    version strictly above the pre-acquisition version, abort releases restore
//    exactly `prev` (lazy STM, sim-HTM buffered mode: memory was never touched)
//    or exactly `prev + 1` (eager STM rollback and OrElse partial rollback: the
//    bump invalidates concurrent double-checks; see eager_stm.cc).
//  * Global-clock monotonicity — every clock value a thread observes (begin
//    sample, commit increment, rollback bump, extension re-sample) is
//    non-decreasing per thread, and a timestamp extension only moves a
//    transaction's start forward. Read-read coherence on the single clock word
//    guarantees per-thread monotonicity for ANY memory order, so this check
//    stays sound under the planned memory-order diet (ROADMAP) and instead
//    catches torn clock state, accidental resets, and shadow/desc divergence.
//  * WakeIndex registration balance — each tid's Add (indexed or global) and
//    Remove alternate strictly, and Remove runs on the thread that performed
//    the Add (the owner-thread-only contract wake_index.h documents; violating
//    it makes the owner-side bookkeeping a data race).
//  * WaiterRegistry presence-bit balance — MarkRegistered/UnmarkRegistered
//    alternate strictly per tid.
//  * Wake claim/post pairing — a waiter slot claimed by a committed wake batch
//    (the transactional asleep 1→0 transition in deschedule.cc) is posted
//    exactly once, and a wake-path post never happens without a committed
//    claim. A violation here IS a double or lost wakeup.
//  * Segment publication balance — each 256-tid segment control block of the
//    segmented WaiterRegistry / WakeIndex is published at most once (the
//    [seg-publish] CAS admits one winner; a double report means a lost CAS
//    racer leaked its block into the directory or a directory entry was
//    overwritten).
//  * Quiescence scan bound — a thread publishes its quiesce slot only below
//    the QuiesceTable's registered-tid bound. The commit-path walks stop at
//    that bound, so a slot above it is one no writer commit waits for: a
//    missed bound raise would silently break privatization safety.
//
// The checker is passive shadow state: it never synchronizes the checked code
// (its shadow writes ride the happens-before edges the real protocol already
// provides) and it is compiled out entirely — hooks and all — unless the CMake
// option TCS_PROTOCOL_CHECKS is ON. The class itself is always built so tests
// can drive hook sequences directly and assert that seeded violations fire.
#ifndef TCS_TM_PROTOCOL_CHECKER_H_
#define TCS_TM_PROTOCOL_CHECKER_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace tcs {

struct Orec;
class OrecTable;

// Wraps each protocol hook call site. Compiles to nothing (arguments are not
// evaluated, named entities need not exist) unless TCS_PROTOCOL_CHECKS is on,
// so hooks cost zero in production builds.
#if TCS_PROTOCOL_CHECKS
#define TCS_PROTO(...) \
  do {                 \
    __VA_ARGS__;       \
  } while (0)
#else
#define TCS_PROTO(...) \
  do {                 \
  } while (0)
#endif

class ProtocolChecker {
 public:
  // How an orec's lock is being released, which decides the version contract.
  enum class ReleaseKind : int {
    kCommit,      // publish the commit timestamp: strictly above pre-acquisition
    kAbortBump,   // eager rollback / OrElse release: exactly prev + 1
    kAbortExact,  // lazy / sim-HTM buffered rollback: exactly prev
  };

  // `orecs` provides the pointer→index mapping for the orec shadow array;
  // `max_threads` sizes the per-tid shadow slots. The checker holds a reference
  // to the table (same lifetime as the owning TmSystem, or the test fixture).
  ProtocolChecker(const OrecTable& orecs, int max_threads);

  ProtocolChecker(const ProtocolChecker&) = delete;
  ProtocolChecker& operator=(const ProtocolChecker&) = delete;

  // --- failure plumbing ---
  // Every violation bumps violations() and invokes the failure handler. The
  // default handler prints the protocol and detail and aborts (a violated
  // protocol means the run's results are meaningless); tests install a
  // counting handler so seeded violations can be asserted without dying.
  using FailureHandler = void (*)(void* ctx, const char* protocol,
                                  const char* detail);
  void SetFailureHandler(FailureHandler handler, void* ctx);
  std::uint64_t violations() const {
    // mo: relaxed — violations_ is a monotone counter; readers (test
    // assertions after joining worker threads) are ordered by thread join.
    return violations_.load(std::memory_order_relaxed);
  }

  // --- orec lock/release protocol ---
  // Called by the acquiring thread immediately AFTER its successful CAS to the
  // locked word (it owns the orec, so shadow writes cannot race another
  // acquirer), with the pre-acquisition version the CAS observed.
  void OnOrecAcquire(const Orec* o, int tid, std::uint64_t prev_version);
  // Called by the owner immediately BEFORE the release store (the word is
  // still locked, so no concurrent acquirer can reach its own hook yet), with
  // the version about to be published.
  void OnOrecRelease(const Orec* o, int tid, std::uint64_t new_version,
                     ReleaseKind kind);

  // --- global-clock monotonicity ---
  // Called with every clock value a thread obtains (Load or Increment result).
  void OnClockObserved(int tid, std::uint64_t value);
  // Called when TryExtendTimestamp advances a transaction's start time.
  void OnStartAdvanced(int tid, std::uint64_t old_start,
                       std::uint64_t new_start);

  // --- WakeIndex registration balance (owner-thread-only contract) ---
  void OnWakeRegister(int tid, bool indexed);
  void OnWakeDeregister(int tid);

  // --- WaiterRegistry presence-bit balance ---
  void OnPresenceMark(int tid);
  void OnPresenceUnmark(int tid);

  // --- batched wake claim/post pairing (deschedule.cc) ---
  // Called once per claim after the claiming wake transaction COMMITS (claims
  // of an aborted batch die with it and must not be reported).
  void OnWakeClaimCommitted(int waiter_tid);
  // Called once per claim made by the lock-free CAS fast path, after the
  // claiming orec has been released (the CAS claim has no enclosing wake
  // transaction — the orec release IS its commit point). Same pairing
  // contract as OnWakeClaimCommitted: exactly one post must follow.
  void OnWakeClaimCas(int waiter_tid);
  // Called by the waker immediately before posting the claimed waiter's wake
  // token (ParkingLot::Post).
  void OnWakePost(int waiter_tid);

  // --- segment publication balance (segmented registry / wake index) ---
  // Which segmented structure published a segment control block.
  enum class SegmentKind : int {
    kWaiterRegistry = 0,
    kWakeIndex = 1,
  };
  // Called by the thread whose directory CAS won, immediately after the CAS.
  // Each (kind, index) pair may be published at most once per structure
  // lifetime.
  void OnSegmentPublished(SegmentKind kind, int index);

  // --- quiescence scan bound (src/tm/quiesce.h) ---
  // Called immediately before QuiesceTable::SetActive publishes `tid`'s slot,
  // with the table's current bound.
  void OnQuiesceActive(int tid, int bound);

 private:
  struct OrecShadow {
    // mo: relaxed — all three fields are written only by the thread that holds
    // the orec's lock, and read by the next acquirer; the orec word's own
    // acquire-CAS/release-store pair [orec-publish] carries the edge.
    std::atomic<int> owner{-1};
    std::atomic<std::uint64_t> prev_at_acquire{0};
    std::atomic<std::uint64_t> version{0};
  };

  struct TidShadow {
    // mo: relaxed — single-writer (the owning thread); cross-thread visibility
    // on tid-slot recycling is ordered by the descriptor registration lock.
    std::atomic<std::uint64_t> last_clock{0};
    std::atomic<std::uint64_t> wake_owner{0};  // hashed thread id, 0 = none
    std::atomic<int> wake_state{0};            // 0 none, 1 indexed, 2 global
    std::atomic<int> presence{0};
    // mo: relaxed RMW — claim (waker) and post (same waker, after commit) are
    // same-thread; a different waker can only claim after the waiter consumed
    // the post and re-registered, a chain ordered by the [park-handoff] token
    // edge itself.
    std::atomic<int> pending_posts{0};
  };

  void Fail(const char* protocol, const char* fmt, ...);
  OrecShadow& ShadowOf(const Orec* o);
  TidShadow& TidOf(int tid, const char* protocol);

  const OrecTable& orecs_;
  const int max_threads_;
  const int segment_shadow_words_;
  std::unique_ptr<OrecShadow[]> orec_shadow_;
  std::unique_ptr<TidShadow[]> tid_shadow_;
  // One published-bit per (kind, segment index); set via relaxed RMW (the
  // publishing CAS already serializes publication attempts).
  std::unique_ptr<std::atomic<std::uint64_t>[]> segment_shadow_[2];

  std::atomic<std::uint64_t> violations_{0};
  FailureHandler handler_;
  void* handler_ctx_ = nullptr;
};

}  // namespace tcs

#endif  // TCS_TM_PROTOCOL_CHECKER_H_
