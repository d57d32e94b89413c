// Deschedule (Algorithm 4) and wakeWaiters: the paper's abstract HTM-friendly
// condition-synchronization mechanism. Retry, Await, and WaitPred all reduce to
// Deschedule(f, p): roll back, double-check f(p) inside a registration
// transaction, publish ⟨f, p⟩, sleep, and on wakeup restart the whole transaction.
//
// Registration writes one table, the WakeIndex. Waiters whose predicate is
// the value-based findChanges index themselves under the orec of each waitset
// address, so a committing writer wake-checks only the waiters its write set
// could have satisfied; arbitrary-predicate waiters land on the index's global
// fallback list, which every writer still visits. Either entry also sets the
// waiter's presence bit, which the writer's "anyone waiting at all?" peek
// reads. See wake_index.h for the no-lost-wakeup argument, and the comment on
// WakeWaiters below for why it survives batching the wake checks into shared
// wake transactions.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/condsync/wake_index.h"
#include "src/obs/trace.h"
#include "src/tm/tm_system.h"

namespace tcs {

bool FindChangesPred(TmSystem& sys, const WaitArgs& args) {
  const auto* ws = reinterpret_cast<const WaitSet*>(args.v[0]);
  for (const WaitSet::Entry& e : ws->entries()) {
    if (sys.Read(e.addr) != e.val) {
      return true;
    }
  }
  return false;
}

void TmSystem::Deschedule(WaitPredFn fn, const WaitArgs& args) {
  DescheduleImpl(fn, args, /*timed=*/false);
}

void TmSystem::DescheduleImpl(WaitPredFn fn, const WaitArgs& args, bool timed) {
  TxDesc& d = Desc();
  // findChanges waiters carry their exact address list; prune the duplicates
  // retry logging can accumulate (an OrElse whose branches both read an
  // address publishes the union waitset with one entry per branch) so each
  // address is published — and indexed — once.
  WaitSet* ws = nullptr;
  if (fn == &FindChangesPred) {
    ws = reinterpret_cast<WaitSet*>(args.v[0]);
    std::size_t pruned = ws->Prune();
    if (pruned > 0) {
      d.stats.Bump(Counter::kWaitsetPruned, pruned);
    }
  }
  d.stats.Bump(Counter::kDeschedules);
  TCS_TRACE_EVENT(d, TraceEvent::kDeschedule, 0);
  if (ws != nullptr && !ws->Empty()) {
    // Count only the waitset this deschedule actually publishes: pure-predicate
    // waits (Await/WaitPred through a non-findChanges fn) publish no address
    // list, and d.waitset may hold stale entries from a prior restart — bench
    // precision metrics divide by this counter, so it must not overcount.
    d.stats.Bump(Counter::kWaitsetEntries, ws->Size());
  }
  if (d.woke_from_sleep) {
    // We were woken, re-executed, and are about to sleep again: the wakeup did
    // not establish our precondition (a broadcast-style false wakeup, §2.4.1).
    d.stats.Bump(Counter::kFalseWakeups);
  }

  // Figure 2.1, time 1: undo all effects. Memory is now indistinguishable from
  // the transaction never having run; only the thread's published precondition
  // remains (allocations the waitset points into are kept alive until wakeup).
  RollbackForDeschedule(d);

  WaiterSlot& slot = wake_index_->slot(d.tid);
  slot.Prepare(fn, args, &d.park);
  // Clear any stale wake-post stamp before this sleep's waker can write a new
  // one (the previous claimer's post — and therefore its stamp — was consumed
  // before this thread could re-deschedule).
  slot.StampWakePost(0);
  // The index entry and presence bit must be visible before the registration
  // transaction can commit; committing writers order their peeks against them
  // through the clock.
  if (cfg_.targeted_wakeup && ws != nullptr && !ws->Empty()) {
    std::vector<const Orec*>& read_orecs = d.wait_orec_scratch;
    read_orecs.clear();
    for (const WaitSet::Entry& e : ws->entries()) {
      read_orecs.push_back(&orecs_.For(e.addr));
    }
    wake_index_->AddIndexed(d.tid, read_orecs.data(), read_orecs.size());
    d.stats.Bump(Counter::kIndexedDeschedules);
  } else {
    // WaitPred waiters have no address list; an *empty* findChanges waitset
    // (a Retry whose logging pass read nothing transactionally) has one that
    // no writer shard union could ever cover. Both register on the global
    // fallback list every writer visits.
    wake_index_->AddGlobal(d.tid);
    d.stats.Bump(Counter::kGlobalDeschedules);
  }

  // The registration transaction: re-evaluate the precondition and, only if it
  // still fails, publish the slot. Expressing the condition as f(p) means no
  // TM-metadata validation is needed here — if a writer establishes the
  // precondition concurrently, either this transaction aborts and re-runs (and
  // then sees the new state), or it serializes first and the writer's
  // wakeWaiters sees the slot. Either way the wakeup cannot be lost.
  bool sleep = false;
  RunInternalTx([&] {
    if (fn(*this, args)) {
      sleep = false;
      return;
    }
    Write(&slot.active, 1);
    Write(&slot.asleep, 1);
    sleep = true;
  });

  if (sleep) {
    d.stats.Bump(Counter::kSleeps);
    TCS_TRACE_EVENT(d, TraceEvent::kSleep, 0);
    std::uint64_t sleep_start_ns = cfg_.latency_metrics ? ObsNowNs() : 0;
    bool acquired = true;
    bool spun = false;
    if (timed) {
      // Deadline set by the DeadlineExpired check of the *For call that led
      // here. The gated spin comes first, so a wait it satisfies arms no
      // timeout at all: the wheel's mutex and the ticker stay untouched.
      // Otherwise the sleep registers an epoch-stamped timeout with the
      // shared ticker and parks for either token; a stale fire (a wheel post
      // for an earlier epoch of this spot) wakes us with the timeout token
      // but no expired deadline, so we re-arm and re-park — ArmTimed bumps
      // the epoch, which retires the stale registration.
      if (lot_.Spin(d.park, ParkingLot::kWakeToken)) {
        spun = true;
        lot_.ParkEither(d.park);  // consumes the wake token without blocking
      } else {
        for (;;) {
          std::uint64_t epoch = lot_.ArmTimed(d.park);
          wheel_->Schedule(&d.park, epoch, d.active_deadline);
          acquired = lot_.ParkEither(d.park);
          if (acquired || std::chrono::steady_clock::now() >= d.active_deadline) {
            break;
          }
        }
      }
    } else {
      spun = lot_.ConsumeToken(d.park);
    }
    if (spun) {
      d.stats.Bump(Counter::kSpinWakeups);
    }
    if (cfg_.latency_metrics) {
      std::uint64_t now = ObsNowNs();
      d.obs.wait_duration.Record(now - sleep_start_ns);
      if (acquired) {
        // The claiming waker stamped the post time just before Post; the
        // [park-handoff] edge ordered that stamp before this load (see
        // WaiterSlot).
        std::uint64_t posted = slot.LoadWakePost();
        if (posted != 0 && now >= posted) {
          d.obs.wake_latency.Record(now - posted);
        }
      }
    }
    // arg 1 marks a timeout expiry rather than a wakeup post.
    TCS_TRACE_EVENT(d, TraceEvent::kWakeup, acquired ? 0 : 1);
    if (acquired) {
      // Figure 2.1, time 4 approach: deregister before restarting so no writer
      // wastes work on this slot ("on wakeup, prevent future notifications").
      RunInternalTx([&] { Write(&slot.active, 0); });
      d.woke_from_sleep = true;
    } else {
      // Timed out. Deregister, racing against a waker that may have already
      // claimed this slot (set asleep=0) and be about to post the wake token.
      // The deregistration transaction serializes against the wake-check
      // transaction: if the waker won, we must drain its post so the stale
      // token cannot satisfy this thread's *next* sleep instantly.
      //
      // Why the drain can never hang, and never leaks a token — the ordering
      // argument, in full (timeout delivery only decides how
      // `acquired == false` is produced above; the claim/post protocol below
      // is oblivious to it):
      //
      //   1. A waker posts the wake token strictly AFTER its claiming
      //      transaction (or CAS claim) commits the asleep 1→0 transition.
      //   2. Our deregistration transaction reads asleep transactionally, so
      //      it serializes against every claim. Exactly two interleavings
      //      exist:
      //        * Claim-first: we read asleep == 0. The claim is durable, so
      //          by (1) its post is already issued or imminent — ConsumeToken
      //          terminates (it parks at most until that post lands) and
      //          consumes the token, leaving the spot clean for the next
      //          sleep. No leak, no hang.
      //        * Dereg-first: we read asleep == 1 and commit active = 0,
      //          asleep = 0. Every later wake check (transactional or CAS)
      //          reads our committed zeros and skips; no post is ever issued
      //          for this sleep, so there is nothing to drain and
      //          claimed_by_waker correctly stays false.
      //   3. A racing wheel fire for THIS sleep's epoch can additionally set
      //      the timeout token, never the wake token, and ConsumeToken
      //      ignores and clears pending timeout tokens while waiting — so a
      //      late tick cannot satisfy the drain in place of the waker's post,
      //      and the next ArmTimed retires the epoch anyway.
      bool claimed_by_waker = false;
      RunInternalTx([&] {
        claimed_by_waker = (Read(&slot.asleep) == 0);
        Write(&slot.active, 0);
        Write(&slot.asleep, 0);
      });
      if (claimed_by_waker) {
        lot_.ConsumeToken(d.park);
      }
    }
  }
  // Clears this tid's entry and presence bit, so every exit — wakeup,
  // timeout, and the no-sleep double-check — leaves the index clean.
  wake_index_->Remove(d.tid);

  d.mem.ReclaimDeferred();
  d.skip_backoff = true;
  throw TxRestart{};
}

// wakeWaiters, batched and with a lock-free claim fast path. Algorithm 4
// re-checks each candidate in its own internal transaction, so every candidate
// costs a full tx setup/commit (one global-clock RMW each) on the committing
// writer's critical path. Here the writer instead (1) collects candidate tids
// — the shard-indexed waiters its write-set shard union covers, then the
// global-fallback waiters, in that order, deduplicated (ForEachCandidateIn
// can emit a tid twice; see below) — (2) tries to claim each uncontended
// findChanges candidate with a single orec CAS and no transaction at all
// (TryCasWakeClaim below), and (3) evaluates predicates and claims slots for
// the leftover candidates in batches of up to wake_batch_size inside ONE wake
// transaction each, posting every claimed park spot strictly after its claim
// is durable.
//
// Why batching preserves the no-lost-wakeup argument (extending the
// conservativeness argument in wake_index.h): a claim is the transactional
// transition asleep 1→0, and the post still happens strictly after the
// claiming transaction commits, so per claimed waiter the protocol is exactly
// Algorithm 4's — the only change is that several claims share one
// serialization point. The batch transaction serializes against every
// waiter's registration transaction: if a waiter registers after the batch
// serialized, its registration double-check runs against the writer's
// committed state and sees the new values; if before, the batch's candidate
// collection (which happens after the writer's commit fence) sees the index
// entry and the batch re-reads `active`/`asleep` transactionally. A batch
// that aborts mid-claim is rolled back by the TM (the tentative asleep=0
// writes are undone/dropped) and re-executed: the claim list is rebuilt from
// scratch on every execution and posts happen only for the claims of the one
// committed execution, so an abort can neither lose a claim (the re-execution
// re-reads active/asleep and re-claims whoever still qualifies) nor duplicate
// one (no post precedes the commit). A waiter claimed by a *different* writer
// between our executions shows asleep==0 and is skipped — exactly the
// idempotence the per-candidate protocol already relied on.
//
// The lock-free claim fast path. An uncontended claim is, at bottom, the
// asleep 1→0 transition made durable at a serialization point — nothing about
// it *needs* a full transaction. The fast path performs it directly:
//
//   1. Enter the backend's wake-claim region (sim-HTM: join the serial-token
//      Dekker handshake, since serial-irrevocable writers bypass orecs).
//   2. CAS-lock the orec covering `slot.asleep`. This excludes every
//      transactional toucher of the slot: the registration transaction and
//      the timeout deregistration write `asleep` (so they need this orec),
//      and the wakeup deregistration can only run after a *claim*, which
//      needs it too. Holding it with asleep == 1 therefore pins the slot in
//      its published state — fn/args/park are frozen (they are rewritten only
//      after asleep returns to 0) and no other waker can claim.
//   3. Snapshot-evaluate the findChanges predicate seqlock-style: per waitset
//      entry, sample the covering orec, read the value, re-sample. Equal
//      unlocked samples prove the value is a committed one (every release
//      kind that could have covered a memory modification changes the
//      version; the exact-version releases never touched memory). Any locked
//      or changed sample → fall back to the wake transaction.
//   4. Claim: store asleep = 0, then release the orec at a fresh global-clock
//      increment. Publishing a *new* version is what makes the claim a real
//      serialization point: a concurrent wake transaction that read
//      asleep == 1 before our claim now fails validation (version > its
//      start) and re-executes, re-reads asleep == 0, and skips — the same
//      idempotence argument the batched path relies on. Releasing at the old
//      version would let that transaction commit a second claim.
//   5. Post, strictly after the release — exactly Algorithm 4's escape-action
//      ordering, with the orec release as the commit point.
//
// The quiesce table brackets the whole attempt: the raw waitset reads in step
// 3 look at memory a concurrent committer may be about to privatize/free, so
// the claimer registers as an active reader at its sampled clock, making the
// committer's quiescence fence wait for it exactly as it would for a reader
// transaction.
TmSystem::CasClaimResult TmSystem::TryCasWakeClaim(TxDesc& d, int waiter_tid) {
  WaiterSlot& slot = wake_index_->slot(waiter_tid);
  // Cheap raw peek before touching any shared cache line exclusively: a
  // candidate already claimed (or never re-registered) needs no claim.
  // mo: relaxed — advisory peek only; the post-CAS acquire re-read decides.
  if (std::atomic_ref<const TmWord>(slot.active)
              .load(std::memory_order_relaxed) == 0 ||
      std::atomic_ref<const TmWord>(slot.asleep)
              .load(std::memory_order_relaxed) == 0) {
    return CasClaimResult::kSkipped;
  }
  if (!EnterWakeClaimRegion(d)) {
    return CasClaimResult::kFallback;  // serial-mode writer active (sim-HTM)
  }
  Orec& claim_orec = orecs_.For(&slot.asleep);
  // mo: acquire — pairs with [orec-publish]; the CAS below must key on a
  // version published by a completed release.
  std::uint64_t prev = claim_orec.word.load(std::memory_order_acquire);
  if (Orec::IsLocked(prev) ||
      // mo: acq_rel — the acquire leg pairs with the previous owner's release
      // store [orec-publish]; the release leg publishes the locked word other
      // threads' acquire samples key on.
      !claim_orec.word.compare_exchange_strong(prev, Orec::MakeLocked(d.tid),
                                               std::memory_order_acq_rel)) {
    ExitWakeClaimRegion(d);
    return CasClaimResult::kFallback;  // contended or mid-registration
  }
  TCS_PROTO(proto_->OnOrecAcquire(&claim_orec, d.tid, Orec::Version(prev)));
  // Re-read under the lock; only now are the loads decisive (see step 2).
  // mo: acquire — pairs with the registration transaction's commit release
  // [orec-publish]: asleep == 1 proves the registration committed, which
  // makes the slot's plain-stored fn/args/park visible and frozen.
  bool published =
      std::atomic_ref<const TmWord>(slot.active)
              .load(std::memory_order_acquire) == 1 &&
      std::atomic_ref<const TmWord>(slot.asleep)
              .load(std::memory_order_acquire) == 1;
  if (!published) {
    TCS_PROTO(proto_->OnOrecRelease(&claim_orec, d.tid, Orec::Version(prev),
                                    ProtocolChecker::ReleaseKind::kAbortExact));
    // mo: release — [orec-publish]: nothing under the orec was modified; the
    // unlock still pairs with concurrent acquire samples.
    claim_orec.word.store(Orec::MakeVersion(Orec::Version(prev)),
                          std::memory_order_release);
    ExitWakeClaimRegion(d);
    return CasClaimResult::kSkipped;
  }
  const WaitSet* ws = nullptr;
  if (slot.fn == &FindChangesPred) {
    ws = reinterpret_cast<const WaitSet*>(slot.args.v[0]);
  }
  bool changed = false;
  bool consistent = ws != nullptr && !ws->Empty();
  if (consistent) {
    for (const WaitSet::Entry& e : ws->entries()) {
      Orec& o = orecs_.For(e.addr);
      if (&o == &claim_orec) {
        // Entry aliases the orec we hold: the value is pinned by our own lock.
        if (LoadWordAcquire(e.addr) != e.val) {
          changed = true;
        }
        continue;
      }
      // mo: acquire — sample leg of the sample/read/re-check snapshot; pairs
      // with [orec-publish] so matching unlocked samples bracket a committed
      // value (no release kind that covers a memory change keeps the version).
      std::uint64_t w1 = o.word.load(std::memory_order_acquire);
      if (Orec::IsLocked(w1)) {
        consistent = false;
        break;
      }
      TmWord v = LoadWordAcquire(e.addr);
      // mo: acquire — re-check leg; pairs with [orec-publish], as above.
      std::uint64_t w2 = o.word.load(std::memory_order_acquire);
      if (w1 != w2) {
        consistent = false;
        break;
      }
      if (v != e.val) {
        changed = true;
      }
    }
  }
  if (!consistent) {
    // Arbitrary predicate, empty waitset (vacuous-wake semantics belong to
    // the transactional path), or a concurrent writer mid-flight over an
    // entry: the wake transaction decides instead.
    TCS_PROTO(proto_->OnOrecRelease(&claim_orec, d.tid, Orec::Version(prev),
                                    ProtocolChecker::ReleaseKind::kAbortExact));
    // mo: release — [orec-publish]: no modification under the orec; unlock
    // pairs with concurrent acquire samples.
    claim_orec.word.store(Orec::MakeVersion(Orec::Version(prev)),
                          std::memory_order_release);
    ExitWakeClaimRegion(d);
    return CasClaimResult::kFallback;
  }
  d.stats.Bump(Counter::kWakeChecks);
  if (!changed) {
    // Predicate unchanged at a consistent snapshot: final, exactly like the
    // batch path's skip — any writer that satisfies it later runs its own
    // wake pass against the still-registered slot.
    TCS_PROTO(proto_->OnOrecRelease(&claim_orec, d.tid, Orec::Version(prev),
                                    ProtocolChecker::ReleaseKind::kAbortExact));
    // mo: release — [orec-publish]: no modification under the orec; unlock
    // pairs with concurrent acquire samples.
    claim_orec.word.store(Orec::MakeVersion(Orec::Version(prev)),
                          std::memory_order_release);
    ExitWakeClaimRegion(d);
    return CasClaimResult::kSkipped;
  }
  // Claim. The data store is ordered before the version publish below.
  StoreWordRelease(&slot.asleep, 0);
  std::uint64_t end = clock_.Increment();
  TCS_PROTO(proto_->OnClockObserved(d.tid, end));
  TCS_PROTO(proto_->OnOrecRelease(&claim_orec, d.tid, end,
                                  ProtocolChecker::ReleaseKind::kCommit));
  // mo: release — [orec-publish]: orders the asleep store above before the
  // fresh version concurrent validators key on; publishing a *new* version is
  // what invalidates wake transactions that read asleep == 1 before us.
  claim_orec.word.store(Orec::MakeVersion(end), std::memory_order_release);
  ExitWakeClaimRegion(d);
  TCS_PROTO(proto_->OnWakeClaimCas(waiter_tid));
  d.stats.Bump(Counter::kCasWakeClaims);
  TCS_TRACE_EVENT(d, TraceEvent::kCasWakeClaim,
                  static_cast<std::uint64_t>(waiter_tid));
  // The post happens strictly after the orec release — the claim's commit
  // point — preserving Algorithm 4's escape-action ordering.
  TCS_PROTO(proto_->OnWakePost(waiter_tid));
  if (cfg_.latency_metrics) {
    slot.StampWakePost(ObsNowNs());
  }
  lot_.Post(*slot.park);
  d.stats.Bump(Counter::kWakeups);
  return CasClaimResult::kClaimed;
}

void TmSystem::WakeWaiters(const std::vector<const Orec*>& write_orecs) {
  TxDesc& d = Desc();

  // Phase 1: collect candidates; self never qualifies. Collection dedups with
  // a per-writer seen bitmap: ForEachCandidateIn's global pass masks against
  // the *current* shard words, so a waiter that deregistered from a shard and
  // re-registered globally between the two passes is emitted twice — harmless
  // for claiming (the second claim sees asleep == 0) but it would double the
  // candidate's wake-check cost and skew the precision counters.
  std::vector<int>& cands = d.wake_candidates;
  cands.clear();
  // Sized to the domain's registered-tid high-water mark, not max_threads: a
  // 64Ki-thread ceiling must not cost every committing writer an 8KB bitmap
  // clear. RegisterThread raises the mark before a thread's first
  // transaction, so it covers every waiter registered when it is sampled.
  const std::size_t seen_words =
      (static_cast<std::size_t>(quiesce_.bound()) + 63) / 64;
  d.wake_seen_scratch.assign(seen_words, 0);
  auto collect = [&](int tid) {
    if (tid != d.tid) {
      const std::size_t wi = static_cast<std::size_t>(tid) / 64;
      if (wi >= d.wake_seen_scratch.size()) {
        // A thread that registered after the mark was sampled can become a
        // waiter and be emitted mid-pass; grow (zero-filled) rather than drop
        // the candidate.
        d.wake_seen_scratch.resize(wi + 1, 0);
      }
      std::uint64_t& word = d.wake_seen_scratch[wi];
      const std::uint64_t bit = std::uint64_t{1} << (tid % 64);
      if ((word & bit) == 0) {
        word |= bit;
        cands.push_back(tid);
      }
    }
  };
  if (cfg_.targeted_wakeup && !write_orecs.empty()) {
    // Targeted pass: only the shards this write set covers, plus the global
    // fallback list. Work scales with relevant waiters, not registered ones.
    // The shard-set bitmap is built once into per-thread scratch (reused
    // commit to commit) via the index's two-phase collect/visit API; the
    // walk visits only segments its repair-stable summary marks occupied.
    d.wake_shard_scratch.resize(
        static_cast<std::size_t>(wake_index_->shard_words()));
    wake_index_->BuildShardSet(write_orecs.data(), write_orecs.size(),
                               d.wake_shard_scratch.data());
    wake_index_->ForEachCandidateIn(d.wake_shard_scratch.data(), collect);
  } else {
    // Global scan: targeting disabled, or the write-set snapshot was not taken
    // (no waiter was visible mid-commit; any waiter visible now either
    // registered after this commit serialized — and so re-checked its
    // predicate against our writes — or is covered by this conservative scan).
    wake_index_->ForEachRegistered(collect);
  }

  // Phase 2: the lock-free claim fast path. The common case — a few disjoint
  // waiters, nobody racing — claims every candidate here and never runs a
  // wake transaction at all. Undecidable candidates accumulate for phase 3.
  std::vector<int>& work = d.wake_fallback;
  work.clear();
  if (cfg_.cas_claim_fast_path && !cands.empty()) {
    // Register as an active reader for the raw predicate snapshots (see
    // TryCasWakeClaim); our own quiesce entry is free post-commit.
    std::uint64_t snap_start = clock_.Load();
    TCS_PROTO(proto_->OnClockObserved(d.tid, snap_start));
    quiesce_.SetActive(d.tid, snap_start);
    for (int tid : cands) {
      if (TryCasWakeClaim(d, tid) == CasClaimResult::kFallback) {
        d.stats.Bump(Counter::kCasClaimFallbacks);
        work.push_back(tid);
      }
    }
    quiesce_.SetInactive(d.tid);
  } else {
    work = cands;
  }

  // Phase 3: batched wake transactions over the leftover candidates, up to
  // wake_batch_size per transaction: big batches amortize commit cost.
  const std::size_t batch_size = static_cast<std::size_t>(cfg_.wake_batch_size);
  std::uint64_t aborts = 0;
  for (std::size_t base = 0; base < work.size(); base += batch_size) {
    const std::size_t end = std::min(work.size(), base + batch_size);
    std::vector<TxDesc::WakeClaim>& claims = d.wake_claims;
    std::size_t checks_this_batch = 0;
    std::uint64_t executions = 0;
    RunInternalTx([&] {
      // Re-execution of an aborted batch starts clean: tentative claims were
      // rolled back with the transaction, so the list must be rebuilt (else a
      // retried batch would double-post) and active/asleep re-read (else it
      // would claim a waiter another writer took in the meantime).
      ++executions;
      claims.clear();
      checks_this_batch = 0;
      for (std::size_t i = base; i < end; ++i) {
        WaiterSlot& slot = wake_index_->slot(work[i]);
        if (Read(&slot.active) == 0 || Read(&slot.asleep) == 0) {
          continue;
        }
        ++checks_this_batch;
        bool satisfied = slot.fn(*this, slot.args);
        bool vacuous = false;
        if (!satisfied && slot.fn == &FindChangesPred &&
            reinterpret_cast<const WaitSet*>(slot.args.v[0])->Empty()) {
          // An address-free findChanges waiter can never observe a change, so
          // without this clause no commit would ever satisfy it; treat any
          // writer commit as a conservative broadcast-style wakeup instead
          // (the re-execution re-checks its real precondition and either
          // proceeds or re-publishes — at worst one false wakeup per commit).
          satisfied = true;
          vacuous = true;
        }
        if (satisfied) {
          Write(&slot.asleep, 0);
          claims.push_back({work[i], vacuous});
        }
      }
    });
    // Every execution but the committed one aborted and re-ran.
    aborts += executions - 1;
#if TCS_PROTOCOL_CHECKS
    // The claim list now reflects the one committed execution of the batch.
    for (const TxDesc::WakeClaim& c : claims) {
      proto_->OnWakeClaimCommitted(c.tid);
    }
#endif
    // Counters reflect the committed execution only (an aborted batch's
    // checks died with it), so kWakeChecks stays an exact per-commit metric.
    d.stats.Bump(Counter::kWakeBatches);
    if (checks_this_batch > 0) {
      d.stats.Bump(Counter::kWakeChecks, checks_this_batch);
      d.stats.Bump(Counter::kWakeChecksBatched, checks_this_batch);
    }
    if (!claims.empty()) {
      TCS_TRACE_EVENT(d, TraceEvent::kWakeBatch, claims.size());
    }
    for (const TxDesc::WakeClaim& c : claims) {
      // The token post is an escape action, so it happens strictly after
      // the wake transaction commits (Algorithm 4, line 9).
      TCS_PROTO(proto_->OnWakePost(c.tid));
      WaiterSlot& claimed = wake_index_->slot(c.tid);
      if (cfg_.latency_metrics) {
        // Stamp strictly before the post so the waiter's read (after the park
        // returns) observes it via the [park-handoff] edge. Exclusive: this
        // writer won the transactional asleep 1→0 claim for this sleep.
        claimed.StampWakePost(ObsNowNs());
      }
      lot_.Post(*claimed.park);
      d.stats.Bump(Counter::kWakeups);
      if (c.vacuous) {
        // A vacuous (empty-waitset) wake is no evidence anyone was satisfied.
        // Counted separately so precision metrics can subtract it from
        // kWakeups.
        d.stats.Bump(Counter::kVacuousWakeups);
      }
    }
  }
  if (aborts > 0) {
    d.stats.Bump(Counter::kWakeTxAborts, aborts);
  }
}

}  // namespace tcs
