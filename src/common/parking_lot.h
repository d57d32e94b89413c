// Pooled parking: the process-level sleep/wake primitive behind Deschedule.
//
// The paper parks each descheduled thread on a private POSIX semaphore. That
// is one kernel object (plus one sem_t cache line) per waiter — invisible at
// the paper's four threads, dominant at the capacity tier's 10^5–10^6 parked
// waiters. A ParkingLot replaces the per-slot semaphore with a per-slot
// *word*: each waiter owns a ParkSpot (a few words embedded in its TxDesc), and
// the lot blocks/wakes threads on that word through a shared facility —
// futex(2) on Linux, where the kernel needs no per-waiter object at all, or a
// small hashed pool of mutex+condvar buckets keyed by spot address elsewhere.
// Per-waiter kernel cost drops to ~0 and memory-per-waiter becomes a bounded,
// measurable number (see TmSystem::SnapshotMetrics "condsync").
//
// Token protocol. A spot's state word carries two token bits:
//
//   kWakeToken    — posted by a claiming waker (ParkingLot::Post), exactly
//                   once per committed claim (the transactional asleep 1→0
//                   admits one waker per sleep; deschedule.cc).
//   kTimeoutToken — posted by the TimerWheel when a timed wait's deadline
//                   tick fires (ParkingLot::PostTimeout).
//
// The spot's owner is the only consumer. ConsumeToken blocks until the wake
// token is present; ParkEither blocks until either token is present and
// reports which (preferring the wake token when both raced in — a claimed
// wakeup must win over a simultaneous timeout, or the claim would be
// half-consumed). Timed-wait cancellation is epoch-based and lazy: the waiter
// bumps the spot's epoch (ArmTimed) before each timed sleep, and a wheel fire
// carrying a stale epoch is dropped by PostTimeout — the wheel never has to
// search-and-delete cancelled entries (timer_wheel.h).
//
// Ordering: Post's release fetch_or pairs with the consumer's acquire clear —
// the [park-handoff] edge (glossary in wake_index.h) — so everything the
// claiming waker did before posting (the committed claim, the wake-post
// stamp) is visible to the woken waiter. PostTimeout's release/acquire pair
// is the [wheel-tick] edge. The blocking facility underneath (futex or the
// bucket mutex) only adds sleep/wake; it carries no data on its own, which is
// what lets both backends share one protocol with zero seq_cst.
//
// Short waits stay in user space on both sides:
//
//   Gated spin — before blocking, the owner polls the token word for up to
//                kSpinNs (Spin), but only while its spot's recent waits were
//                short: an EWMA of wait length, kept in the spot, must be at
//                most kSpinGateNs. A thread whose waits run long (a barrier
//                parked for milliseconds) stops spinning by itself; a run of
//                short waits re-opens the gate. Single-CPU machines never
//                spin — the poster could not run while the waiter spins.
//   Sleeper bit — the owner sets kSleeper (a CAS on the token word) just
//                before the futex or condvar block, and the consuming RMWs
//                clear it. Post and PostTimeout make the wake syscall only
//                when their fetch_or saw the bit, so posting to a waiter that
//                is still spinning, or has not reached its park yet, costs
//                one RMW and no syscall.
#ifndef TCS_COMMON_PARKING_LOT_H_
#define TCS_COMMON_PARKING_LOT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace tcs {

// One waiter's parking place: a token word, the timed-wait epoch, and the
// owner's spin gate. Embed one per thread (TxDesc::park); the owning thread is
// the only consumer, the claiming waker and the timer wheel are the only
// producers.
struct ParkSpot {
  std::atomic<std::uint32_t> state{0};
  // Timed-wait generation, bumped by ArmTimed before each timed sleep; a
  // TimerWheel entry fires only if its captured epoch still matches
  // (lazy cancellation — see PostTimeout).
  std::atomic<std::uint64_t> epoch{0};
  // Owner-only: EWMA (alpha = 1/8) of this spot's recent wait lengths in ns,
  // the input of the spin gate. Read and written only by the consumer side,
  // which runs on the owning thread, so it needs no atomicity.
  std::uint64_t wait_ewma_ns = 0;
};

class ParkingLot {
 public:
  static constexpr std::uint32_t kWakeToken = 1u << 0;
  static constexpr std::uint32_t kTimeoutToken = 1u << 1;
  // Set by the owner just before it blocks; tells a poster to wake it.
  static constexpr std::uint32_t kSleeper = 1u << 2;

  // Spin budget per wait, and the gate: a spot spins only while its wait
  // EWMA is at most kSpinGateNs.
  static constexpr std::uint64_t kSpinNs = 20'000;
  static constexpr std::uint64_t kSpinGateNs = 50'000;

  // Pool backend bucket count: prime, so spot addresses (which share
  // low-bit alignment structure) spread evenly. Spots hashing to one bucket
  // share its condvar, and a post there wakes every sharer.
  static constexpr std::size_t kPoolBuckets = 251;

  // kAuto, the choice every TmSystem makes, picks futex on Linux and the
  // mutex+condvar pool elsewhere. Naming a backend is for tests, which run
  // the pool on Linux too.
  enum class Backend : int { kAuto = 0, kFutex = 1, kPool = 2 };

  explicit ParkingLot(Backend backend = Backend::kAuto);
  // Out of line: ~unique_ptr<Bucket[]> needs the complete Bucket type.
  ~ParkingLot();

  ParkingLot(const ParkingLot&) = delete;
  ParkingLot& operator=(const ParkingLot&) = delete;

  // True when futex backs this lot (bench reporting; pool otherwise).
  bool UsesFutex() const { return use_futex_; }
  // False on a single-CPU machine, where Spin never spins.
  bool CanSpin() const { return can_spin_; }

  // Producer side. Post delivers the wake token (exactly once per committed
  // claim — the caller's protocol, not ours). PostTimeout delivers the
  // timeout token iff `epoch` still matches the spot's current epoch; returns
  // false when the fire was stale (the wait it belonged to already ended).
  // Either makes the wake syscall only when the owner has blocked (kSleeper).
  void Post(ParkSpot& spot);
  bool PostTimeout(ParkSpot& spot, std::uint64_t epoch);

  // Consumer side (spot owner only).
  //
  // Spin is the first phase of a wait: returns true when a `wanted` token is
  // present — already, or after polling for up to kSpinNs while the spot's
  // gate is open. It consumes nothing. A wait that Spin ends is folded into
  // the gate here; a wait that goes on to block is folded in by the blocking
  // call, measured from its first block.
  bool Spin(ParkSpot& spot, std::uint32_t wanted);

  // Untimed wait: spins, then blocks until the wake token is present and
  // clears it (a stale timeout token is cleared with it — the timed wait it
  // belonged to is over). Returns true when the wait ended without blocking.
  bool ConsumeToken(ParkSpot& spot);

  // Timed wait. Its caller spins (Spin) before arming the timeout, so that a
  // wait the spin satisfies never touches the wheel; ParkEither blocks
  // straight away, until either token is present: true = wake token
  // consumed, false = timeout token consumed.
  bool ParkEither(ParkSpot& spot);

  // Arms a timed wait: bumps the epoch (invalidating every wheel entry
  // scheduled for earlier waits on this spot) and clears any stale timeout
  // token. Returns the new epoch to schedule the wheel entry under. Owner
  // only, before parking.
  std::uint64_t ArmTimed(ParkSpot& spot);

  // Clears both tokens (descriptor recycling: a fresh thread adopting a tid
  // must not inherit its predecessor's consumed-slot state). The caller
  // orders this against all prior use of the spot (registration lock).
  void Reset(ParkSpot& spot);

 private:
  struct Bucket;

  // Blocks until `spot.state & wanted` is nonzero (may also return early —
  // callers loop). `observed` is the state value the caller just read with
  // none of the wanted bits set; the sleeper bit is advertised first, and a
  // state change under that CAS returns at once for the caller to re-check.
  void WaitOn(ParkSpot& spot, std::uint32_t wanted, std::uint32_t observed);
  // Sets kSleeper in `observed` and the state word; false when the state
  // moved first (`observed` then holds the new value).
  static bool AdvertiseSleeper(ParkSpot& spot, std::uint32_t& observed);
  void WakeAll(ParkSpot& spot);
  Bucket& BucketOf(const ParkSpot& spot);

  bool use_futex_;
  bool can_spin_;
  // Hashed mutex+condvar buckets, allocated only for the pool backend.
  std::unique_ptr<Bucket[]> buckets_;
};

}  // namespace tcs

#endif  // TCS_COMMON_PARKING_LOT_H_
