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
  // capacity tier makes a large ceiling cheap: the per-thread tables
  // (WakeIndex, QuiesceTable) allocate 256-thread segments on first touch,
  // so an unused ceiling costs a few directory words per 256 tids, not
  // slabs.
  int max_threads = 65536;

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

  // ---- Condition-synchronization knobs ----
  // Three reproduce paper baselines: targeted_wakeup off is the global
  // wakeWaiters scan, and wake_batch_size = 1 with cas_claim_fast_path off is
  // Algorithm 4's one wake transaction per candidate. wake_index_shards is
  // swept by the wake-index precision bench. Parking (futex on Linux, a
  // mutex+condvar pool elsewhere) and the timer wheel's 1-ms tick for timed
  // waits are fixed.
  // Candidates per internal wake transaction in wakeWaiters. The paper's
  // Algorithm 4 re-checks each candidate in its own transaction; every check
  // then pays a full tx setup/commit (clock RMW included) on the committing
  // writer's critical path. Batching amortizes that: up to `wake_batch_size`
  // candidates are predicate-checked and claimed inside ONE wake transaction,
  // with all claimed park spots posted strictly after it commits (see
  // deschedule.cc for why the no-lost-wakeup argument survives batching).
  // 1, with cas_claim_fast_path off, is the paper's per-candidate
  // transactions (ablation baseline). Must be at least 1: the TmSystem
  // constructor rejects anything smaller.
  int wake_batch_size = 8;

  // Lock-free CAS claim fast path: an uncontended waiter slot's asleep 1->0
  // transition is claimed by locking the slot's covering orec with a single
  // compare_exchange (plus a predicate-snapshot validation) instead of running
  // a full internal wake transaction. Contended / mid-registration slots fall
  // back to the batched wake transaction. Off sends every candidate through
  // the batched wake transactions (ablation baseline).
  bool cas_claim_fast_path = true;

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
