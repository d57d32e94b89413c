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
  for (;;) {
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
    if (o1 == o2 && Orec::Version(o1) <= d.start) {
      d.reads.push_back(&o);
      return v;
    }
    // Too-new but stable: the shared extension path can salvage the read by
    // revalidating the read set and advancing `start`, exactly as in eager STM
    // (buffered writes need no special handling — the redo log is private).
    if (o1 != o2 || !cfg_.timestamp_extension ||
        !TryExtendTimestamp(d, ExtendSite::kValidation)) {
      AbortCurrent(d, Counter::kAborts, AbortCause::kReadValidation, &o);
    }
    // Extended: retake the whole sample rather than re-checking the stale o1,
    // which could accept a value overwritten during the extension itself.
  }
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
        // The location was committed past our start, but the buffered write
        // doesn't care about its old value — only the read set must stay
        // valid. Attempt the shared extension instead of aborting outright
        // (the ROADMAP's lazy commit-time follow-up), then re-sample the
        // orec under the extended start.
        if (!cfg_.timestamp_extension ||
            !TryExtendTimestamp(d, ExtendSite::kCommitValidation)) {
          AbortCurrent(d, Counter::kAborts, AbortCause::kCommitValidation,
                       &o);
        }
        continue;
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
        if (Orec::Owner(w) == d.tid) {
          continue;
        }
        // Locked by a concurrent commit or abort — possibly transient. One
        // shared extension attempt revalidates the *entire* read set against
        // the current clock (so on success the remaining entries need no
        // further checks) and salvages the case where that lock has already
        // been released at an old version by the time it re-samples.
        if (!cfg_.timestamp_extension ||
            !TryExtendTimestamp(d, ExtendSite::kCommitValidation)) {
          AbortCurrent(d, Counter::kAborts, AbortCause::kLockCollision, o);
        }
        break;
      }
      if (Orec::Version(w) > d.start) {
        // Unlocked and too new: genuinely overwritten since we read it. An
        // extension would re-check this very orec and fail (versions are
        // monotonic), so abort outright rather than pay a doomed rescan.
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
  if (cfg_.privatization_safety) {
    d.stats.Bump(Counter::kQuiesceCalls);
    quiesce_.WaitForReadersBefore(end, d.tid);
  }
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
