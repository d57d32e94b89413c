// lint:hot-path — per-access TM fast path: TCS_DCHECK must not appear inside
// loops here (tools/tm_analyze.py); use TCS_CHECK on slow paths.
#include "src/tm/lazy_stm.h"

namespace tcs {

LazyStm::LazyStm(const TmConfig& config) : TmSystem(config) {}

void LazyStm::BeginTx(TxDesc& d) {
  d.start = clock_.Load();
  TCS_PROTO(proto_->OnClockObserved(d.tid, d.start));
  quiesce_.SetActive(d.tid, d.start);
}

TmWord LazyStm::ReadWord(TxDesc& d, const TmWord* addr) {
  // Read-own-writes from the redo log.
  TmWord v;
  if (d.redo.Lookup(addr, &v)) {
    return v;
  }
  Orec& o = orecs_.For(addr);
  // mo: acquire — pairs with the committer's release store [orec-publish];
  // seeing an unlocked version makes the written-back data visible.
  std::uint64_t o1 = o.word.load(std::memory_order_acquire);
  if (Orec::IsLocked(o1)) {
    // Locks are held only during a concurrent commit's write-back window.
    AbortCurrent(d, Counter::kAborts, AbortCause::kLockCollision, &o);
  }
  v = LoadWordAcquire(addr);
  // mo: acquire — re-check leg of the sample/read/re-check snapshot; pairs
  // with [orec-publish] so an o1==o2 match proves no release intervened.
  std::uint64_t o2 = o.word.load(std::memory_order_acquire);
  if (o1 != o2 || Orec::Version(o1) > d.start) {
    AbortCurrent(d, Counter::kAborts, AbortCause::kReadValidation, &o);
  }
  d.reads.push_back(&o);
  return v;
}

void LazyStm::WriteWord(TxDesc& d, TmWord* addr, TmWord val) {
  d.redo.Put(addr, val);
}

bool LazyStm::CommitTx(TxDesc& d) {
  if (d.redo.Empty()) {
    d.reads.clear();
    quiesce_.SetInactive(d.tid);
    return false;
  }
  // Acquire an orec for every written location. Distinct addresses can share an
  // orec; a lock we already hold is skipped.
  d.redo.ForEachAddr([&](TmWord* addr) {
    Orec& o = orecs_.For(addr);
    for (;;) {
      // mo: acquire — pairs with [orec-publish]; the CAS below must key on a
      // version published by a completed release.
      std::uint64_t w = o.word.load(std::memory_order_acquire);
      if (Orec::IsLocked(w)) {
        if (Orec::Owner(w) == d.tid) {
          return;
        }
        AbortCurrent(d, Counter::kAborts, AbortCause::kLockCollision, &o);
      }
      if (Orec::Version(w) > d.start) {
        // Committed past our start: Appendix A's conservative abort.
        AbortCurrent(d, Counter::kAborts, AbortCause::kCommitValidation, &o);
      }
      // mo: acq_rel — the acquire leg pairs with the previous owner's release
      // store [orec-publish]; the release leg publishes the locked word other
      // threads' acquire samples key on.
      if (o.word.compare_exchange_strong(w, Orec::MakeLocked(d.tid),
                                         std::memory_order_acq_rel)) {
        TCS_PROTO(proto_->OnOrecAcquire(&o, d.tid, Orec::Version(w)));
        d.locks.push_back({&o, Orec::Version(w)});
        return;
      }
      // CAS lost a race; re-sample (a now-locked or too-new orec is handled
      // above on the next pass).
    }
  });
  std::uint64_t end = clock_.Increment();
  TCS_PROTO(proto_->OnClockObserved(d.tid, end));
  if (end != d.start + 1) {
    for (Orec* o : d.reads) {
      // mo: acquire — pairs with [orec-publish]; an unlocked version ≤ start
      // proves the covered data is still the data this transaction read.
      std::uint64_t w = o->word.load(std::memory_order_acquire);
      if (Orec::IsLocked(w)) {
        if (Orec::Owner(w) != d.tid) {
          AbortCurrent(d, Counter::kAborts, AbortCause::kLockCollision, o);
        }
      } else if (Orec::Version(w) > d.start) {
        AbortCurrent(d, Counter::kAborts, AbortCause::kCommitValidation, o);
      }
    }
  }
  SnapshotCommitOrecsIfNeeded(d);
  d.redo.WriteBack();
  for (const LockedOrec& l : d.locks) {
    TCS_PROTO(proto_->OnOrecRelease(l.orec, d.tid, end,
                                    ProtocolChecker::ReleaseKind::kCommit));
    // mo: release — [orec-publish]: orders the redo write-back before the
    // unlocked version a reader's acquire sample pairs with.
    l.orec->word.store(Orec::MakeVersion(end), std::memory_order_release);
  }
  quiesce_.SetInactive(d.tid);
  d.stats.Bump(Counter::kQuiesceCalls);
  quiesce_.WaitForReadersBefore(end, d.tid);
  return true;
}

void LazyStm::Rollback(TxDesc& d) {
  // No in-place writes to undo. Locks exist only if a commit attempt failed
  // mid-acquisition; restoring the exact previous version is safe because memory
  // was never modified.
  for (const LockedOrec& l : d.locks) {
    TCS_PROTO(proto_->OnOrecRelease(l.orec, d.tid, l.prev_version,
                                    ProtocolChecker::ReleaseKind::kAbortExact));
    // mo: release — [orec-publish]: memory under the lock was never modified,
    // but the unlock itself must still pair with concurrent acquire samples.
    l.orec->word.store(Orec::MakeVersion(l.prev_version), std::memory_order_release);
  }
  d.locks.clear();
  d.reads.clear();
  d.redo.Clear();
  d.undo.Clear();
  quiesce_.SetInactive(d.tid);
}

// OrElse partial rollback: buffered writes never touched memory, so dropping
// the branch's redo entries (and un-overwriting shared ones) is the whole job.
void LazyStm::PartialRollback(TxDesc& d, const TxSavepoint& sp) {
  // Always-on: OrElse partial rollback is rare, and a populated undo log or
  // lock list here means a branch wrote in place — dropping redo entries
  // would then silently corrupt user data.
  TCS_CHECK(d.undo.Empty());
  TCS_CHECK(d.locks.empty());  // lazy STM locks only inside CommitTx
  d.redo.RollbackTo(sp.redo);
}

TmWord LazyStm::PreTxValue(TxDesc& d, const TmWord* addr, TmWord observed) {
  // A read satisfied from the redo log returned a speculative value; the waitset
  // must instead hold the (untouched) memory value, which is what the location
  // will show once this transaction is rolled back.
  TmWord dummy;
  if (d.redo.Lookup(addr, &dummy)) {
    return LoadWordRelaxed(addr);
  }
  return observed;
}

}  // namespace tcs
