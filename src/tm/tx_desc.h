// Per-thread transaction descriptor (the paper's "Tx object", Algorithm 8, plus the
// condition-synchronization fields of Algorithms 4 and 5).
//
// One descriptor holds the state for every backend — undo log (eager STM and the
// simulated HTM's serial mode), redo log (lazy STM and simulated-HTM buffering),
// orec read/lock sets — because a TM domain runs exactly one backend and the unused
// logs cost nothing.
#ifndef TCS_TM_TX_DESC_H_
#define TCS_TM_TX_DESC_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/parking_lot.h"
#include "src/common/stats.h"
#include "src/obs/thread_obs.h"
#include "src/tm/orec_table.h"
#include "src/tm/redo_log.h"
#include "src/tm/tx_malloc.h"
#include "src/tm/undo_log.h"
#include "src/tm/wait_set.h"
#include "src/tm/word.h"

namespace tcs {

class TmSystem;
class TmCondVar;

// Marshaled arguments for a wait predicate (Algorithm 7). A fixed inline record:
// WaitPred "cannot construct an object to store these arguments, since the writes
// might be undone during Deschedule", so the library copies up to four words.
//
// Lifetime contract: the wait runs after the attempt that reached it has
// unwound (TmSystem::OnRestart), and writers evaluate the predicate while the
// waiter sleeps. So a word that is a pointer must name state that outlives the
// wait, such as a shared object or the descriptor's waitset, and never the
// transaction body's own frame, which is gone by then.
struct WaitArgs {
  std::array<TmWord, 4> v{};
  std::uint32_t n = 0;
};

// A wait predicate, evaluated transactionally — by the waiter inside its
// registration transaction (the Deschedule double-check) and by writers inside
// wakeWaiters. It must be read-only and must access shared state only through
// TmSystem::Read.
using WaitPredFn = bool (*)(TmSystem&, const WaitArgs&);

// An orec acquired by the running transaction, with its pre-acquisition version so
// releaseForAbort can restore `prev_version + 1` (Algorithm 11).
struct LockedOrec {
  Orec* orec;
  std::uint64_t prev_version;
};

// An orec this thread's own rollback just released, with the word it published
// there. Validation against a start time accepts exactly that word as
// unchanged: the value beneath was restored before the release, and this
// thread held the lock in between.
struct ReleasedOrecWord {
  const Orec* orec;
  std::uint64_t word;
};

// A wait that an attempt reached and recorded before throwing TxRestart. The
// restart loop runs it between attempts (TmSystem::OnRestart), so the attempt
// unwinds before the thread sleeps and a woken thread goes straight into its
// next attempt.
struct PendingWait {
  enum class Kind : std::uint8_t {
    kNone,
    kDeschedule,  // Retry, Await, WaitPred and their timed forms
    kRetryOrig,   // Algorithm 1's waiting list
    kCondVar,     // TMCondVar: the attempt committed and enqueued; park
  };
  Kind kind = Kind::kNone;
  // kDeschedule: the predicate, a copy of its arguments, and whether
  // TxDesc::active_deadline bounds the sleep.
  WaitPredFn fn = nullptr;
  WaitArgs args;
  bool timed = false;
  // kRetryOrig: the attempt's start time and the words its rollback released.
  std::uint64_t start = 0;
  std::vector<ReleasedOrecWord> released;
  // kRetryOrig: the attempt's read orecs. kDeschedule: the orecs of an
  // indexed waitset, rebuilt when the wait runs. Reused wait to wait.
  std::vector<const Orec*> orecs;
};

// Deferred TMCondVar signal: signals issued inside a transaction take effect only
// when (and if) that transaction commits.
struct DeferredCvSignal {
  TmCondVar* cv;
  bool broadcast;
};

// Marks the state of the running attempt when an OrElse branch begins, so the
// branch's speculative effects — and only those — can be rolled back if it
// retries. Reads (and the orecs locked for writes) made by the abandoned branch
// deliberately stay: the decision to take the alternative depended on what the
// branch observed, so serializability still has to validate them, and the
// retry waitset keeps the branch's entries so a deschedule after both branches
// fail waits on the union of their read sets.
struct TxSavepoint {
  std::size_t undo_size;
  RedoLog::Savepoint redo;
  // Orecs locked after this mark were first acquired by the branch; backends
  // that can release them safely on partial rollback do so (eager restores
  // prev_version + 1 for orecs outside the read set; the simulated HTM's
  // buffered mode restores the exact pre-acquisition version).
  std::size_t locks_size;
  std::size_t alloc_count;
  std::size_t free_count;
};

struct TxDesc {
  TxDesc(int tid_in, std::uint64_t backoff_seed)
      : tid(tid_in), backoff(backoff_seed) {}

  TxDesc(const TxDesc&) = delete;
  TxDesc& operator=(const TxDesc&) = delete;

  // --- identity ---
  const int tid;

  // --- lifecycle ---
  std::uint32_t nesting = 0;
  bool internal = false;  // runtime-internal transaction: skip post-commit hooks
  std::uint64_t start = 0;

  // --- STM state (Appendix A) ---
  std::vector<Orec*> reads;
  std::vector<LockedOrec> locks;
  UndoLog undo;
  RedoLog redo;
  TxMallocLog mem;

  // --- condition synchronization (Algorithms 4-7) ---
  WaitSet waitset;
  bool retry_logging = false;  // the paper's is_retry: log ⟨addr,value⟩ on every read
  ParkSpot park;               // per-thread parking place (ParkingLot tokens)
  bool woke_from_sleep = false;

  // --- OrElse / timed-wait state ---
  // Number of OrElse alternatives the current attempt still has available; a
  // Retry() while this is non-zero throws TxRetrySignal to the innermost OrElse
  // frame instead of descheduling.
  std::uint32_t orelse_alts = 0;
  // Timed-wait deadlines, one per *call*: each RetryFor/AwaitFor/WaitPredFor
  // call arms its own deadline the first time it is reached and keeps it across
  // the transaction's restarts (logging restart, conflict aborts, false
  // wakeups), so a call's timeout bounds that wait's total elapsed time — while
  // a later, different wait in the same transaction starts its own clock.
  // (Previously one deadline was shared by every timed wait of the transaction,
  // so a second sequential wait inherited whatever budget the first had left.)
  // Calls are identified by a caller-supplied key — the call site, or the
  // awaited address set — combined with the occurrence ordinal within the
  // attempt, so one call site re-reached across restarts finds its armed
  // deadline, and a loop reusing a call site still gets one deadline per
  // logical wait. Expired slots are kept until commit so a conflict-abort
  // replay of the delivering attempt re-observes the expiry rather than
  // re-arming a fresh budget.
  struct ArmedDeadline {
    std::uint64_t key;
    std::chrono::steady_clock::time_point at;
  };
  std::vector<ArmedDeadline> deadlines;
  std::vector<std::uint64_t> wait_keys_this_attempt;
  // Deadline of the timed wait currently heading to sleep (set by the
  // DeadlineExpired check that precedes DescheduleImpl on the same call path,
  // read when the pending wait runs).
  std::chrono::steady_clock::time_point active_deadline{};
  std::vector<DeferredCvSignal> deferred_signals;
  // Writer-side snapshot of acquired orecs, taken just before lock release when
  // Retry-Orig waiters exist (Algorithm 1's TxCommit intersection needs it).
  std::vector<const Orec*> commit_orecs;
  // Commit() swaps commit_orecs and deferred_signals into these before the
  // descriptor is reset, and runs the signals and the wake pass from them:
  // the pass's internal transactions may abort, which clears
  // deferred_signals. Swapping keeps every buffer's capacity, so steady-state
  // commits allocate neither.
  std::vector<const Orec*> post_commit_orecs;
  std::vector<DeferredCvSignal> post_commit_signals;

  // --- wakeWaiters scratch (writer side, reused commit to commit) ---
  // The write set's wake-index shard-set bitmap (shard_words() words), built
  // once per wake pass into this cached buffer instead of a per-call stack
  // array sized for the maximum shard count.
  std::vector<std::uint64_t> wake_shard_scratch;
  // Candidate tids collected from the index (or the global scan) before the
  // batched wake transactions run over them.
  std::vector<int> wake_candidates;
  // Slots the current wake batch tentatively claimed (asleep 1→0 inside the
  // batch transaction); rebuilt from scratch on every re-execution of the
  // batch, posted only after it commits.
  struct WakeClaim {
    int tid;
    bool vacuous;  // conservative empty-waitset wake, not a satisfied one
  };
  std::vector<WakeClaim> wake_claims;
  // Candidates the CAS fast path could not claim this pass; they re-enter the
  // batched wake-transaction path (rebuilt each pass, like wake_candidates).
  std::vector<int> wake_fallback;
  // Per-tid seen bitmap (one bit per possible waiter tid) used to drop
  // duplicate candidates: a waiter that deregisters and re-registers globally
  // between the shard pass and the global pass of ForEachCandidateIn can be
  // emitted twice (see wake_index.h). Zeroed lazily per wake pass; sized to
  // the domain's registered-tid high-water mark, growing on demand for
  // threads registered mid-pass.
  std::vector<std::uint64_t> wake_seen_scratch;

  // --- simulated HTM state ---
  bool htm_serial = false;         // currently executing in serial-irrevocable mode
  bool htm_software_next = false;  // next attempt must run in serial software mode
  int htm_attempts = 0;            // hardware aborts since last success
  std::uint64_t htm_serial_seq0 = 0;

  // --- restart-loop support ---
  Backoff backoff;
  bool skip_backoff = false;

  TxStats stats;

  // Observability: abort attribution, latency histograms, trace ring
  // (src/obs/thread_obs.h). Same concurrency contract as `stats`.
  ThreadObs obs;

  // Set by a wait just before it throws, run and cleared by OnRestart. Last,
  // because only the wait path touches it: placed among the fields above, it
  // pushed hot ones onto other cache lines and cost a read-only transaction
  // about 10% (bench_main --scenario=tm_ops).
  PendingWait pending;
};

}  // namespace tcs

#endif  // TCS_TM_TX_DESC_H_
