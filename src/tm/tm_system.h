// TmSystem: one transactional-memory domain — a backend (eager STM, lazy STM, or
// simulated HTM) plus the condition-synchronization machinery layered on it.
//
// The class exposes the raw word-granularity hooks (Begin/Commit/Read/Write) that
// the Atomically() loop in core/transaction.h drives, and the paper's four
// condition-synchronization entry points:
//
//   Retry()    — Algorithm 5: wait until anything the attempt read changes.
//   Await()    — Algorithm 6: wait until one of the given addresses changes.
//   WaitPred() — Algorithm 7: wait until a user predicate holds.
//   Deschedule — Algorithm 4: the abstract mechanism the other three reduce to.
//
// plus the evaluation's baselines: RetryOrig() (Algorithm 1) and RestartNow().
#ifndef TCS_TM_TM_SYSTEM_H_
#define TCS_TM_TM_SYSTEM_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <string>

#include "src/common/assert.h"
#include "src/common/parking_lot.h"
#include "src/common/spin_lock.h"
#include "src/common/stats.h"
#include "src/common/timer_wheel.h"
#include "src/obs/abort_attribution.h"
#include "src/obs/latency_histogram.h"
#include "src/tm/orec_table.h"
#include "src/tm/protocol_checker.h"
#include "src/tm/quiesce.h"
#include "src/tm/tm_config.h"
#include "src/tm/tx_desc.h"
#include "src/tm/tx_exceptions.h"
#include "src/tm/version_clock.h"
#include "src/tm/word.h"

namespace tcs {

class RetryOrigRegistry;
class WakeIndex;

// Outcome of a bounded wait (RetryFor/AwaitFor/WaitPredFor). A satisfied wait
// never *returns* — wakeup restarts the transaction body, which re-reads state
// and takes its normal path — so user code only ever observes kTimedOut from
// these calls; kSatisfied exists for adapters that translate the protocol into
// a plain boolean result.
enum class WaitResult : int {
  kSatisfied = 0,
  kTimedOut = 1,
};

// Timeout sentinel: a timed wait given kNoTimeout degrades to exactly its
// untimed counterpart (RetryFor(kNoTimeout) == Retry()).
inline constexpr std::chrono::nanoseconds kNoTimeout =
    std::chrono::nanoseconds::max();

class TmSystem {
 public:
  static std::unique_ptr<TmSystem> Create(const TmConfig& config);

  virtual ~TmSystem();

  TmSystem(const TmSystem&) = delete;
  TmSystem& operator=(const TmSystem&) = delete;

  const TmConfig& config() const { return cfg_; }
  Backend backend() const { return cfg_.backend; }

  // Returns the calling thread's descriptor, registering the thread on first use.
  // Cost: a newest-first scan of the calling thread's descriptor cache, one
  // entry per domain it has used, so the domain it used last costs one compare.
  // Each time the thread registers in a new domain, the entries of destroyed
  // domains are dropped: the cache holds the live domains the thread has used,
  // plus any destroyed since its last registration.
  TxDesc& Desc();
  // Number of entries in the calling thread's descriptor cache (what Desc()
  // scans).
  static std::size_t CachedDescCount();

  // --- transaction lifecycle (drive through Atomically(), not directly) ---
  void Begin();
  void Commit();
  bool InTx() { return Desc().nesting > 0; }

  // Rolls the current attempt back and transfers control to the restart loop.
  [[noreturn]] void AbortSelf(Counter reason);

  // --- transactional data access (word granularity) ---
  TmWord Read(const TmWord* addr);
  void Write(TmWord* addr, TmWord val);

  // --- transactional allocation (Appendix A) ---
  void* TxAlloc(std::size_t bytes);
  void TxFree(void* p);

  // --- condition synchronization ---
  [[noreturn]] void Retry();
  [[noreturn]] void Await(const TmWord* const* addrs, std::size_t n);
  [[noreturn]] void WaitPred(WaitPredFn fn, const WaitArgs& args);
  [[noreturn]] void Deschedule(WaitPredFn fn, const WaitArgs& args);
  [[noreturn]] void RetryOrig();
  [[noreturn]] void RestartNow();

  // --- bounded (timed) condition synchronization ---
  // Like Retry/Await/WaitPred, but the wait is bounded by `timeout` of total
  // elapsed time (accumulated across the transaction's restarts). On expiry the
  // transaction restarts once more and the call returns kTimedOut from that
  // fresh attempt, leaving the attempt live and committable so the body can
  // take an alternative action atomically. These never return kSatisfied: a
  // wakeup restarts the body instead. The waiter's wake-index slot is always
  // deregistered before kTimedOut is delivered (no leaked waitset entries).
  // `wait_key` identifies the *call* (Tx passes the call site; AwaitFor derives
  // a key from the address list), so each timed wait arms its own deadline
  // instead of sharing one transaction-wide budget — see TxDesc::deadlines.
  WaitResult RetryFor(std::chrono::nanoseconds timeout, std::uint64_t wait_key = 0);
  WaitResult AwaitFor(const TmWord* const* addrs, std::size_t n,
                      std::chrono::nanoseconds timeout);
  WaitResult WaitPredFor(WaitPredFn fn, const WaitArgs& args,
                         std::chrono::nanoseconds timeout,
                         std::uint64_t wait_key = 0);

  // --- OrElse support (driven by Tx::OrElse in core/transaction.h) ---
  // Captures the attempt's speculative-write extent so an OrElse branch can be
  // partially rolled back if it retries.
  TxSavepoint TakeSavepoint();
  // Undoes everything the attempt did after `sp` was taken: in-place writes are
  // restored from the undo log, buffered writes dropped from the redo log, and
  // the branch's transactional allocations freed. Reads, acquired orecs, and
  // retry-waitset entries survive (see TxSavepoint's comment).
  void RollbackToSavepoint(const TxSavepoint& sp);
  // OrElse alternative bookkeeping: Retry() raises TxRetrySignal while >0.
  void EnterOrElse();
  void ExitOrElse();
  bool OrElseAltPending() { return Desc().orelse_alts > 0; }
  void OnOrElseFallback();

  // TMCondVar support: commits the in-flight transaction at a wait point (this is
  // the atomicity break of transactional condition variables) and queues `sig` to
  // run after commit.
  void CommitInFlight();
  void DeferSignal(const DeferredCvSignal& sig);

  // Runs `fn` as a complete runtime-internal transaction (registration
  // transactions, wake checks, condvar queue operations). Internal transactions
  // never trigger post-commit hooks, which keeps wakeWaiters from recursing.
  template <typename F>
  void RunInternalTx(F&& fn) {
    TxDesc& d = Desc();
    TCS_CHECK(d.nesting == 0);
    d.internal = true;
    // Internal transactions are independent of the surrounding user transaction's
    // hardware-retry budget and software-mode request; restore both afterwards.
    int saved_attempts = d.htm_attempts;
    bool saved_software = d.htm_software_next;
    d.htm_attempts = 0;
    d.htm_software_next = false;
    for (;;) {
      Begin();
      try {
        fn();
        Commit();
        break;
      } catch (const TxRestart&) {
        d.backoff.Pause();
      }
    }
    d.htm_attempts = saved_attempts;
    d.htm_software_next = saved_software;
    d.internal = false;
  }

  // Called by the restart loop between attempts.
  void OnRestart();

  // Post-commit pass that wakes satisfied waiters (Algorithm 4's wakeWaiters).
  // `write_orecs` is the committing writer's write-set orec snapshot: with
  // targeted wakeup it selects the wake-index shards to visit; when it is
  // empty (or targeting is disabled) the pass degrades to the paper's global
  // scan over every registered waiter. Candidates are wake-checked in batched
  // internal transactions of up to TmConfig::wake_batch_size, with claimed
  // park spots posted strictly after each batch commits (see deschedule.cc
  // for the batched claim/post protocol).
  void WakeWaiters(const std::vector<const Orec*>& write_orecs);

  WakeIndex& wake_index() { return *wake_index_; }
  QuiesceTable& quiesce() { return quiesce_; }

  // The domain's parking lot: every waiter parks on its descriptor's ParkSpot
  // through this lot (futex-backed on Linux; see src/common/parking_lot.h).
  ParkingLot& parking() { return lot_; }
  // Parking spot of a registered thread (used by TMCondVar signalers and the
  // wake paths in deschedule.cc).
  ParkSpot& SpotOf(int tid);
  // Posts `tid`'s wake token (ParkingLot::Post on its spot).
  void PostParked(int tid) { lot_.Post(SpotOf(tid)); }

  // --- dynamic protocol checker (TCS_PROTOCOL_CHECKS builds) ---
  // Violations detected so far on this domain; always 0 when the checker is
  // compiled out (and on any clean run — see src/tm/protocol_checker.h).
  std::uint64_t ProtocolViolations() const;
  // The domain's checker, or nullptr when compiled out. Tests use it to
  // install a counting failure handler instead of the aborting default.
  ProtocolChecker* protocol_checker();

  // --- statistics ---
  TxStats AggregateStats() const;
  void ResetStats();

  // --- observability (src/obs/) ---
  // Merged view of the per-thread obs tables: abort causes, the four latency
  // histograms, and the hot-orec contention leaderboard (top N by abort
  // count, descending).
  struct ObsSnapshot {
    TxStats stats;
    std::array<std::uint64_t, kNumAbortCauses> abort_causes{};
    LatencyHistogram commit_latency;
    LatencyHistogram abort_to_commit;
    LatencyHistogram wait_duration;
    LatencyHistogram wake_latency;
    struct HotOrec {
      std::size_t orec_index;
      std::uint64_t aborts;
    };
    std::vector<HotOrec> hot_orecs;
    std::uint64_t hot_orec_overflow = 0;
    // --- capacity tier (segmented condsync structures + timer wheel) ---
    // Heap footprint of the wake index, the domain's one waiter table
    // (directory, summary and every allocated segment), and how many 256-tid
    // segments it has materialized.
    std::uint64_t condsync_wake_index_bytes = 0;
    int wake_index_segments = 0;
    // Currently registered (published) waiters.
    int registered_waiters = 0;
    // Timer-wheel counters.
    TimerWheel::Stats wheel;
  };
  ObsSnapshot SnapshotObs(std::size_t top_n_orecs = 16) const;
  // Appends the snapshot as one JSON object (backend, counters, abort-cause
  // table, hot orecs, p50/p99/p999/mean per latency metric) to `w`, which
  // must be positioned where a value is expected.
  void SnapshotMetrics(class JsonWriter& w, std::size_t top_n_orecs = 16) const;
  // Writes every thread's TraceRing as Chrome trace-event JSON (Perfetto-
  // loadable). Compiled in all builds — without the TCS_TRACING option the
  // document is valid but empty, with "tracing_compiled": false so tools can
  // tell the difference. Quiesce the traced threads first (see trace_ring.h).
  bool DumpTrace(const std::string& path) const;

 protected:
  explicit TmSystem(const TmConfig& config);

  // Backend hooks. CommitTx returns true iff the transaction performed writes;
  // on validation failure it must roll back and throw TxRestart (via AbortCurrent).
  virtual void BeginTx(TxDesc& d) = 0;
  virtual bool CommitTx(TxDesc& d) = 0;
  virtual TmWord ReadWord(TxDesc& d, const TmWord* addr) = 0;
  virtual void WriteWord(TxDesc& d, TmWord* addr, TmWord val) = 0;
  // Undo writes, release locks, clear access sets; must leave the waitset intact.
  virtual void Rollback(TxDesc& d) = 0;

  // Partial rollback to an OrElse savepoint. The default handles both log
  // styles (undo entries above the mark restored in place, redo entries above
  // the mark dropped); backends refine it to assert their invariants.
  virtual void PartialRollback(TxDesc& d, const TxSavepoint& sp);

  // Value `addr` will hold after this transaction rolls back. Backends with
  // in-place updates consult the undo log (Algorithm 5's read of `undos`).
  virtual TmWord PreTxValue(TxDesc& d, const TmWord* addr, TmWord observed);

  // Backend-specific part of Await (Algorithm 6): undo writes so memory shows
  // pre-transaction state, then re-read `addrs` through ReadWord into the waitset.
  virtual void PrepareAwait(TxDesc& d, const TmWord* const* addrs, std::size_t n);

  // Simulated HTM: true while executing as a hardware transaction, which cannot
  // publish a waitset or sleep (no escape actions, §2.2.2); condition
  // synchronization must abort and re-execute in software mode.
  virtual bool NeedsSoftwareForCondSync(TxDesc& d);

  // --- CAS claim fast path (non-transactional wake claiming) ---
  // The fast path in WakeWaiters claims a waiter slot by CAS-locking its
  // covering orec outside any transaction. That is sound for the STM backends
  // (all their commits respect orecs), but the simulated HTM's
  // serial-irrevocable software mode writes with NO orecs, protected only by
  // the Dekker handshake between the per-thread commit flags (QuiesceTable
  // slots) and the serial token.
  // EnterWakeClaimRegion makes the claimer a participant in that handshake
  // (or returns false: fall back to the wake transaction, which already
  // participates via Begin/Commit); ExitWakeClaimRegion leaves it. The
  // default (STM backends) is trivially true / no-op.
  virtual bool EnterWakeClaimRegion(TxDesc& d);
  virtual void ExitWakeClaimRegion(TxDesc& d);

  // Aborts the hardware transaction and arranges a software-mode re-execution.
  [[noreturn]] virtual void SwitchToSoftwareMode(TxDesc& d, bool enable_retry_logging);

  // Shared abort path: rollback + allocation cleanup + restart exception.
  // `cause` attributes the abort for the per-thread cause table; `conflict`
  // (when the aborting site knows it) names the orec the transaction lost
  // on, feeding the hot-orec contention table.
  [[noreturn]] void AbortCurrent(TxDesc& d, Counter reason,
                                 AbortCause cause = AbortCause::kExplicit,
                                 const Orec* conflict = nullptr);

  // --- timestamp extension (Riegel et al. [22]) ---
  // An orec this transaction itself just released, with the word it published;
  // revalidation treats a read orec holding exactly that word as unchanged
  // (the value beneath was restored before the release, and we held the lock
  // in between, so nobody else can have touched it).
  struct ReleasedOrecWord {
    const Orec* orec;
    std::uint64_t word;
  };
  // Eager STM's OrElse orec release is the one caller: its prev+1 release
  // bumps publish versions past `start`, so the surviving branch needs the
  // extension (every other too-new access aborts, Appendix A). Revalidates the
  // read set against the current clock — an unlocked read orec at or below
  // `start` is unchanged since it was read, because committed versions always
  // exceed any concurrently sampled start — and on success advances d.start
  // (and the quiesce entry) to the sampled clock. Returns false (leaving
  // d.start untouched) if any read orec shows foreign interference.
  bool TryExtendTimestamp(TxDesc& d, const ReleasedOrecWord* released,
                          std::size_t released_n);

  // Deschedule's rollback: like an abort, but allocations are kept alive until
  // after wakeup because the published waitset may point into them (§2.2.4).
  void RollbackForDeschedule(TxDesc& d);

  // Snapshots the write-set orecs into d.commit_orecs when a post-commit
  // consumer needs them: Retry-Orig's intersection (Algorithm 1) or the
  // targeted wake index. Precondition: a backend calls it after its commit's
  // clock RMW, while the write set's orecs are locked; that is what makes its
  // Retry-Orig peek sound (retry_orig.h). The serial variant derives orecs
  // from the undo log for the simulated HTM's lock-free serial-irrevocable
  // mode.
  void SnapshotCommitOrecsIfNeeded(TxDesc& d);
  void SnapshotCommitOrecsFromUndoIfNeeded(TxDesc& d);

  TmConfig cfg_;
  OrecTable orecs_;
  VersionClock clock_;
  QuiesceTable quiesce_;
#if TCS_PROTOCOL_CHECKS
  // Shadow-state verifier for the orec/clock/wake protocols; every hook call
  // site below and in the backends is wrapped in TCS_PROTO so this member (and
  // all hook costs) vanish when the CMake option is off.
  std::unique_ptr<ProtocolChecker> proto_;
#endif

 private:
  // Outcome of one lock-free fast-path claim attempt (deschedule.cc):
  // kClaimed posted the waiter, kSkipped decided no wake is due (slot gone or
  // predicate unchanged — final, like the batch path's skip), kFallback could
  // not decide non-transactionally (orec contention, mid-registration slot,
  // serial-mode writer, arbitrary predicate) and defers to the wake batch.
  enum class CasClaimResult { kClaimed, kSkipped, kFallback };
  CasClaimResult TryCasWakeClaim(TxDesc& d, int waiter_tid);
  // Shared body of Deschedule and the timed waits: publish, double-check, and
  // sleep — bounded by d's deadline when `timed` is set. A timeout deregisters
  // the slot (draining any racing wakeup post) and restarts the transaction;
  // the re-executed body's *For call then observes the expired deadline.
  [[noreturn]] void DescheduleImpl(WaitPredFn fn, const WaitArgs& args, bool timed);
  // Arms/checks the per-call deadline slot for the timed wait identified by
  // `wait_key` (plus its occurrence ordinal this attempt). Returns true if that
  // call's deadline has expired (slot erased, kWaitTimeouts bumped): the caller
  // must return WaitResult::kTimedOut. Otherwise d.active_deadline holds the
  // call's deadline for the sleep below.
  bool DeadlineExpired(TxDesc& d, std::chrono::nanoseconds timeout,
                       std::uint64_t wait_key);
  void ClearAccessSets(TxDesc& d);
  void ResetDescAfterTx(TxDesc& d);
  TxDesc& RegisterThread();
  // Returns a descriptor slot when its thread exits, so that short-lived threads
  // do not exhaust max_threads. Called from thread-local cache destructors via
  // the global live-system registry.
  void ReleaseTid(TxDesc* d);
  static void ReleaseTidIfAlive(std::uint64_t uid, TxDesc* d);
  struct DescCache;

  // Unique per process: a new domain at a recycled address gets a new uid, so
  // thread caches keyed on it never return a stale descriptor.
  const std::uint64_t uid_;
  // Guards descriptor registration; also taken (mutable) by the stats readers
  // so monitoring scans don't race slot creation.
  mutable SpinLock registration_lock_;
  std::vector<std::unique_ptr<TxDesc>> descs_;
  std::vector<int> free_tids_;

  std::unique_ptr<RetryOrigRegistry> retry_orig_;
  std::unique_ptr<WakeIndex> wake_index_;

  // Pooled parking for every waiter in the domain. Declared before the wheel
  // (and after descs_) so destruction runs wheel → lot → descriptors: the
  // ticker thread stops while the spots it posts into are still alive.
  ParkingLot lot_;
  // Hierarchical timer wheel for timed waits; always built (its ticker
  // thread starts on the first timed wait).
  std::unique_ptr<TimerWheel> wheel_;
};

// The wait predicate implementing Retry and Await wakeups: true iff any ⟨addr,val⟩
// pair in the published waitset no longer matches memory (Algorithm 5's
// findChanges). args.v[0] holds the WaitSet pointer.
bool FindChangesPred(TmSystem& sys, const WaitArgs& args);

}  // namespace tcs

#endif  // TCS_TM_TM_SYSTEM_H_
