// Configuration for a TM domain (one tcs::Runtime instance).
#ifndef TCS_TM_TM_CONFIG_H_
#define TCS_TM_TM_CONFIG_H_

#include <cstddef>

namespace tcs {

// The three transaction-execution configurations evaluated in the paper (§2.4):
// eager STM ("ml-wt"/TinySTM-like), lazy STM (TL2-like), and best-effort HTM
// (simulated; see DESIGN.md "Substitutions").
enum class Backend : int {
  kEagerStm = 0,
  kLazyStm = 1,
  kSimHtm = 2,
};

const char* BackendName(Backend b);

struct TmConfig {
  Backend backend = Backend::kEagerStm;

  // log2 of the ownership-record table size (entries).
  std::size_t orec_table_log2 = 18;

  // Maximum number of threads that may ever register with this domain.
  // Registration past it fails loudly (TCS_CHECK in RegisterThread). The
  // capacity tier makes a large ceiling cheap: waiter-side structures
  // (WaiterRegistry, WakeIndex, QuiesceTable) allocate 256-thread segments
  // on first touch, so an unused ceiling costs a few directory words per
  // 256 tids, not slabs.
  int max_threads = 65536;

  // ---- Capacity-tier knobs ----
  // ParkingLot backend (ParkingLot::Backend numbering): 0 auto (futex on
  // Linux, else the mutex+condvar pool), 1 futex, 2 pool. The pool fallback
  // is also the portable reference implementation for tests.
  int park_backend = 0;
  // Route timed waits (RetryFor/AwaitFor/WaitPredFor deadlines) through the
  // shared hierarchical TimerWheel: N concurrent timed waits cost one ticker
  // thread and O(1) per tick instead of N independent kernel timeouts. Off,
  // each timed wait parks with its own deadline (ablation baseline; also the
  // pre-capacity-tier behavior).
  bool timer_wheel = true;
  // TimerWheel level-0 tick in microseconds: the granularity (and worst-case
  // added latency) of wheel-serviced timeouts. Timed waits never fire early;
  // they fire up to one tick late plus ticker scheduling lag.
  int timer_wheel_tick_us = 1000;

  // Run commit-time quiescence so privatization is safe (Appendix A).
  bool privatization_safety = true;

  // Eager/lazy STM: on a too-new read, try to extend the transaction's
  // timestamp by revalidating the read set instead of aborting (Appendix A
  // names this as the standard fix for its "overly conservative" abort; Riegel
  // et al. [22]). All extension callers — read validation, OrElse orec release,
  // sim-HTM buffered release — share one TmSystem::TryExtendTimestamp path;
  // eager's OrElse release extends unconditionally (its release bumps versions
  // past `start`, so the extension is correctness-relevant there).
  bool timestamp_extension = false;

  // ---- Simulated HTM knobs ----
  // Hardware attempts before falling back to serial-irrevocable software mode.
  // The paper's GCC runtime "suspends concurrency after a transaction aborts
  // twice, so that it may execute to completion".
  int htm_max_attempts = 2;
  // Best-effort capacity limits, in 64-byte cache lines (i7-class L1 budgets).
  std::size_t htm_read_capacity_lines = 4096;
  std::size_t htm_write_capacity_lines = 512;
  // §2.2.6 extension: use the 8-bit explicit-abort code as an index into a table
  // of registered WaitPred predicates so a hardware transaction can deschedule
  // without re-executing in software mode.
  bool htm_pred_table = false;

  // ---- Condition-synchronization knobs (ablations) ----
  // Wake at most one satisfied waiter per writer commit instead of all of them
  // (our mechanisms "essentially broadcast", §2.4.1; this knob quantifies that).
  bool wake_single = false;

  // Candidates per internal wake transaction in wakeWaiters. The paper's
  // Algorithm 4 re-checks each candidate in its own transaction; every check
  // then pays a full tx setup/commit (clock RMW included) on the committing
  // writer's critical path. Batching amortizes that: up to `wake_batch_size`
  // candidates are predicate-checked and claimed inside ONE wake transaction,
  // with all claimed park spots posted strictly after it commits (see
  // deschedule.cc for why the no-lost-wakeup argument survives batching).
  // 1 reverts to the paper's per-candidate transactions (ablation baseline).
  // With adaptive_wake_batch on, this is the CAP on the effective batch size;
  // the actual batch scales with the candidate count and shrinks when the
  // recent wake-tx abort rate (EWMA in TxDesc) is high.
  int wake_batch_size = 8;

  // Lock-free CAS claim fast path: an uncontended waiter slot's asleep 1->0
  // transition is claimed by locking the slot's covering orec with a single
  // compare_exchange (plus a predicate-snapshot validation) instead of running
  // a full internal wake transaction. Contended / mid-registration slots fall
  // back to the batched wake transaction. Off reproduces PR 5's all-batched
  // behavior (ablation baseline).
  bool cas_claim_fast_path = true;

  // Scale the effective wake batch per commit: min(wake_batch_size,
  // candidate count), halved (or quartered) while the wake-tx abort-rate EWMA
  // is high so contended wake batches shrink toward the paper's per-candidate
  // baseline instead of repeatedly aborting large batches. Off uses the fixed
  // wake_batch_size (ablation baseline).
  bool adaptive_wake_batch = true;

  // Sharded wakeup index (src/condsync/wake_index.h): committing writers
  // wake-check only the waiters registered under shards their write-set orecs
  // cover, plus arbitrary-predicate waiters on the global fallback list.
  // Disabled, every writer commit re-checks every registered waiter (the
  // paper's original global scan — kept as the ablation baseline).
  bool targeted_wakeup = true;
  // Shard count for the wakeup index; power of two in [1, 4096]
  // (WakeIndex::kMaxShards). More shards mean fewer unrelated waiters
  // aliasing into the shards a hot writer touches — at 64 shards and 64
  // disjoint waiters a commit pays ~3 wake checks, at 1024 it pays ~1 — for
  // ~64 bytes of bitmap per shard.
  int wake_index_shards = 1024;

  // ---- Observability (src/obs/) ----
  // Record lifecycle events into per-thread TraceRings. Only effective in
  // builds with the TCS_TRACING CMake option ON (otherwise the hooks are
  // compiled out entirely); checked at thread registration, so flip it
  // before the worker threads first touch the domain.
  bool tracing = false;
  // TraceRing capacity in records per thread (each record is 24 bytes).
  // On overflow the oldest record is overwritten and kTraceDrops bumped.
  std::size_t trace_ring_capacity = std::size_t{1} << 14;
  // Record commit/abort-to-commit/wait/wake latency histograms. Cheap (two
  // steady_clock reads per committed transaction) but not free; benchmarks
  // chasing peak throughput can turn it off.
  bool latency_metrics = true;
};

}  // namespace tcs

#endif  // TCS_TM_TM_CONFIG_H_
