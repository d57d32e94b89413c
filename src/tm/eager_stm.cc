// lint:hot-path — per-access TM fast path: TCS_DCHECK must not appear inside
// loops here (tools/tm_analyze.py); use TCS_CHECK on slow paths.
#include "src/tm/eager_stm.h"

namespace tcs {

EagerStm::EagerStm(const TmConfig& config) : TmSystem(config) {}

void EagerStm::BeginTx(TxDesc& d) {
  d.start = clock_.Load();
  TCS_PROTO(proto_->OnClockObserved(d.tid, d.start));
  quiesce_.SetActive(d.tid, d.start);
}

// Algorithm 10, TxRead: atomically sample the orec, read the location, and re-check
// the orec; accept only locations that are unlocked and no newer than this
// transaction's start (or locked by this transaction).
TmWord EagerStm::ReadWord(TxDesc& d, const TmWord* addr) {
  Orec& o = orecs_.For(addr);
  // mo: acquire — pairs with the committer's release store [orec-publish];
  // seeing an unlocked version makes the data that commit wrote visible.
  std::uint64_t o1 = o.word.load(std::memory_order_acquire);
  TmWord val = LoadWordAcquire(addr);
  if (Orec::IsLocked(o1)) {
    if (Orec::Owner(o1) == d.tid) {
      return val;
    }
    AbortCurrent(d, Counter::kAborts, AbortCause::kLockCollision, &o);
  }
  // mo: acquire — re-check leg of the sample/read/re-check snapshot; pairs
  // with [orec-publish] so an o1==o2 match proves no release intervened.
  std::uint64_t o2 = o.word.load(std::memory_order_acquire);
  if (o1 != o2 || Orec::Version(o1) > d.start) {
    AbortCurrent(d, Counter::kAborts, AbortCause::kReadValidation, &o);
  }
  d.reads.push_back(&o);
  return val;
}

// Algorithm 10, TxWrite: acquire the covering lock (unless already held), log the
// old value, and update in place.
void EagerStm::WriteWord(TxDesc& d, TmWord* addr, TmWord val) {
  Orec& o = orecs_.For(addr);
  for (;;) {
    // mo: acquire — pairs with [orec-publish]; orders the undo-log snapshot of
    // the old value after the commit that published it.
    std::uint64_t w = o.word.load(std::memory_order_acquire);
    if (Orec::IsLocked(w)) {
      if (Orec::Owner(w) != d.tid) {
        AbortCurrent(d, Counter::kAborts, AbortCause::kLockCollision, &o);
      }
      // A single lock can cover multiple locations, so the undo entry is
      // required even when the lock is already held (Algorithm 10's note).
      d.undo.Append(addr, LoadWordRelaxed(addr));
      StoreWordRelease(addr, val);
      return;
    }
    if (Orec::Version(w) > d.start) {
      // Committed past our start: Appendix A's conservative abort.
      AbortCurrent(d, Counter::kAborts, AbortCause::kEncounterAcquisition, &o);
    }
    // mo: acq_rel — the acquire leg pairs with the previous owner's release
    // store [orec-publish] (their data writes become visible); the release leg
    // publishes the locked word other threads' acquire samples key on.
    if (o.word.compare_exchange_strong(w, Orec::MakeLocked(d.tid),
                                       std::memory_order_acq_rel)) {
      TCS_PROTO(proto_->OnOrecAcquire(&o, d.tid, Orec::Version(w)));
      d.locks.push_back({&o, Orec::Version(w)});
      d.undo.Append(addr, LoadWordRelaxed(addr));
      StoreWordRelease(addr, val);
      return;
    }
    // CAS lost a race; re-sample (a now-locked or too-new orec is handled
    // above on the next pass).
  }
}

// Algorithm 9, TxCommit.
bool EagerStm::CommitTx(TxDesc& d) {
  if (d.locks.empty()) {
    // Read-only: every read was consistent when performed; nothing to publish.
    d.reads.clear();
    quiesce_.SetInactive(d.tid);
    return false;
  }
  std::uint64_t end = clock_.Increment();
  TCS_PROTO(proto_->OnClockObserved(d.tid, end));
  if (end != d.start + 1) {
    // Some other writer committed since we began: validate the read set.
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
  for (const LockedOrec& l : d.locks) {
    TCS_PROTO(proto_->OnOrecRelease(l.orec, d.tid, end,
                                    ProtocolChecker::ReleaseKind::kCommit));
    // mo: release — [orec-publish]: orders this transaction's in-place data
    // writes before the unlocked version a reader's acquire sample pairs with.
    l.orec->word.store(Orec::MakeVersion(end), std::memory_order_release);
  }
  quiesce_.SetInactive(d.tid);
  d.stats.Bump(Counter::kQuiesceCalls);
  quiesce_.WaitForReadersBefore(end, d.tid);
  return true;
}

// Algorithm 11, TxAbort: undo writes in reverse, release locks with a bumped
// version so a concurrent TxRead's double-check cannot accept a speculative value,
// and blindly advance the clock so the bumped versions are legal.
void EagerStm::Rollback(TxDesc& d) {
  d.undo.UndoAll();
  for (const LockedOrec& l : d.locks) {
    TCS_PROTO(proto_->OnOrecRelease(l.orec, d.tid, l.prev_version + 1,
                                    ProtocolChecker::ReleaseKind::kAbortBump));
    // mo: release — [orec-publish]: orders the undo restores before the
    // bumped unlocked version a reader's acquire sample pairs with.
    l.orec->word.store(Orec::MakeVersion(l.prev_version + 1),
                       std::memory_order_release);
  }
  if (!d.locks.empty()) {
    [[maybe_unused]] std::uint64_t bumped = clock_.Increment();
    TCS_PROTO(proto_->OnClockObserved(d.tid, bumped));
  }
  d.undo.Clear();
  d.locks.clear();
  d.reads.clear();
  d.redo.Clear();
  quiesce_.SetInactive(d.tid);
}

// OrElse partial rollback: restore the branch's in-place writes from the undo
// log, newest first, then release the orecs the branch acquired so concurrent
// transactions are not blocked on locks guarding writes that no longer exist.
//
// Release protocol (mirrors Algorithm 11's abort release): every location an
// above-mark lock covers was first written by the branch — a pre-branch write
// to the same orec would have acquired it below the mark — so after UndoTo the
// memory under it holds pre-transaction values, and the lock is released at
// prev_version + 1 (the bump keeps a concurrent TxRead's double-check from
// having accepted a speculative value mid-branch; the clock advance makes the
// bumped versions legal, exactly as in Rollback).
//
// The bumped versions can exceed this transaction's own start time, which
// would make its later reads — and commit-time validation of earlier reads —
// of those very locations abort it (and re-running the branch re-releases,
// livelocking). So the release is paired with a timestamp extension
// (TryExtendTimestamp, whose only caller this is): advance d.start to the
// post-release clock after revalidating every read orec, tolerating the words
// this rollback itself just published (we held the lock in between, and the
// value beneath has been restored, so nobody else can have touched those
// locations). Anything else is foreign interference, and the transaction
// conservatively aborts — no worse than the conflict it was already heading
// for.
void EagerStm::PartialRollback(TxDesc& d, const TxSavepoint& sp) {
  // Always-on: OrElse partial rollback is rare (never per-access), and undoing
  // with a stale savepoint silently corrupts user data.
  TCS_CHECK(d.redo.Empty());
  d.undo.UndoTo(sp.undo_size);
  TCS_CHECK(sp.locks_size <= d.locks.size());
  if (sp.locks_size == d.locks.size()) {
    return;
  }
  std::vector<ReleasedOrecWord> released;
  released.reserve(d.locks.size() - sp.locks_size);
  for (std::size_t i = sp.locks_size; i < d.locks.size(); ++i) {
    const LockedOrec& l = d.locks[i];
    std::uint64_t w = Orec::MakeVersion(l.prev_version + 1);
    TCS_PROTO(proto_->OnOrecRelease(l.orec, d.tid, l.prev_version + 1,
                                    ProtocolChecker::ReleaseKind::kAbortBump));
    // mo: release — [orec-publish]: orders the branch's undo restores before
    // the bumped unlocked version a reader's acquire sample pairs with.
    l.orec->word.store(w, std::memory_order_release);
    released.push_back({l.orec, w});
  }
  d.locks.resize(sp.locks_size);
  d.stats.Bump(Counter::kOrElseOrecReleases, released.size());
  [[maybe_unused]] std::uint64_t bumped = clock_.Increment();
  TCS_PROTO(proto_->OnClockObserved(d.tid, bumped));
  if (!TryExtendTimestamp(d, released.data(), released.size())) {
    AbortCurrent(d, Counter::kAborts, AbortCause::kOrElseAbandon);
  }
}

TmWord EagerStm::PreTxValue(TxDesc& d, const TmWord* addr, TmWord observed) {
  // Reads of locations this transaction wrote must log the value memory will hold
  // after rollback (Algorithm 5's consultation of `undos`); logging the speculative
  // value would make every later writer commit look like a change (§2.2.6).
  TmWord original;
  if (d.undo.FindOriginal(addr, &original)) {
    return original;
  }
  return observed;
}

// Algorithm 6: undo the writes *while still holding the write locks*, then re-read
// the given addresses through the instrumented path. Locations this transaction
// wrote read back their pre-transaction values; others validate against `start`.
void EagerStm::PrepareAwait(TxDesc& d, const TmWord* const* addrs, std::size_t n) {
  d.undo.UndoAll();
  d.undo.Clear();
  d.waitset.Clear();
  for (std::size_t i = 0; i < n; ++i) {
    TmWord v = ReadWord(d, addrs[i]);
    d.waitset.Append(addrs[i], v);
  }
}

}  // namespace tcs
