// lint:hot-path — per-access TM fast path: TCS_DCHECK must not appear inside
// loops here (tools/tm_analyze.py); use TCS_CHECK on slow paths.
#include "src/tm/sim_htm.h"

#include "src/common/cpu.h"
#include "src/obs/trace.h"

namespace tcs {

namespace {

bool SameArgs(const WaitArgs& a, const WaitArgs& b) {
  if (a.n != b.n) {
    return false;
  }
  for (std::uint32_t i = 0; i < a.n; ++i) {
    if (a.v[i] != b.v[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

SimHtm::SimHtm(const TmConfig& config) : TmSystem(config) {}

std::uint8_t SimHtm::RegisterPred(WaitPredFn fn, const WaitArgs& args) {
  SpinLockGuard g(pred_table_lock_);
  // Index 0 means "unregistered"; kHtmAbortCondSync is reserved.
  for (int i = 1; i < static_cast<int>(kHtmAbortCondSync); ++i) {
    PredEntry& e = pred_table_[static_cast<std::size_t>(i)];
    if (e.fn == fn && SameArgs(e.args, args)) {
      return static_cast<std::uint8_t>(i);
    }
    if (e.fn == nullptr) {
      e.fn = fn;
      e.args = args;
      // mo: release — publishes the entry just written above; pairs with the
      // acquire load in LookupPred so a looked-up index reads initialized data.
      pred_table_size_.fetch_add(1, std::memory_order_release);
      return static_cast<std::uint8_t>(i);
    }
  }
  return 0;
}

std::uint8_t SimHtm::LookupPred(WaitPredFn fn, const WaitArgs& args) {
  // mo: acquire — pairs with the release fetch_add in RegisterPred; entries
  // below `n` are fully initialized.
  int n = pred_table_size_.load(std::memory_order_acquire);
  for (int i = 1; i <= n && i < static_cast<int>(kHtmAbortCondSync); ++i) {
    const PredEntry& e = pred_table_[static_cast<std::size_t>(i)];
    if (e.fn == fn && SameArgs(e.args, args)) {
      return static_cast<std::uint8_t>(i);
    }
  }
  return 0;
}

void SimHtm::MaybeHwPredTableDeschedule(TxDesc& d, WaitPredFn fn,
                                        const WaitArgs& args) {
  if (!cfg_.htm_pred_table || d.htm_serial) {
    return;
  }
  std::uint8_t code = LookupPred(fn, args);
  if (code == 0) {
    return;  // unregistered combination: take the software-mode path
  }
  // The hardware transaction aborts with `code`; the (simulated) abort handler
  // recovers ⟨fn, args⟩ from the table and descheds directly — no serial
  // re-execution of the transaction body (§2.2.6).
  d.htm_abort_code = code;
  d.stats.Bump(Counter::kHtmExplicitAborts);
  d.stats.Bump(Counter::kHtmPredTableFastPath);
  d.obs.causes.Bump(AbortCause::kHtmExplicit);
  Rollback(d);
  d.nesting = 0;
  Deschedule(pred_table_[code].fn, pred_table_[code].args);
}

void SimHtm::EnterSerial(TxDesc& d) {
  serial_entry_lock_.Lock();
  // mo: seq_cst — [serial-token] Dekker: the token store must be totally
  // ordered against every committer's flag store/re-check in CommitTx.
  // seq_cst-required: Dekker write leg — W(token)/R(flags) vs the committer's
  // W(flag)/R(token); a release store would let both sides miss each other.
  serial_owner_.store(d.tid, std::memory_order_seq_cst);
  // mo: seq_cst — [serial-token]: same total order as the token store, so a
  // passive hardware transaction's seq re-check catches a full serial section.
  // seq_cst-required: must sit in the token store's total order; otherwise a
  // full enter/exit serial section could hide between a transaction's token
  // poll and its seq baseline.
  serial_seq_.fetch_add(1, std::memory_order_seq_cst);
  // Drain hardware commits that began before the token was visible. The
  // drain stops at the registered-tid bound, read after the token store: a
  // thread registered later raises its flag only after its bound raise, so
  // its re-check sees the token (see src/tm/quiesce.h).
  quiesce_.WaitForCommitFlagsClear();
  d.htm_serial = true;
  d.stats.Bump(Counter::kHtmFallbacks);
  TCS_TRACE_EVENT(d, TraceEvent::kHtmFallback, 0);
}

void SimHtm::ExitSerial(TxDesc& d) {
  d.htm_serial = false;
  // mo: seq_cst — [serial-token]: release the token in the same total order
  // hardware transactions poll it in (BeginTx / SerialInterference).
  // seq_cst-required: the token word anchors the Dekker; keeping every access
  // in the single total order is what the exclusion argument quantifies over.
  serial_owner_.store(-1, std::memory_order_seq_cst);
  serial_entry_lock_.Unlock();
}

void SimHtm::BeginTx(TxDesc& d) {
  if (d.htm_software_next || d.htm_attempts >= cfg_.htm_max_attempts) {
    // GCC progress rule: after repeated hardware aborts (or an explicit request
    // from the condition-synchronization layer), suspend concurrency and run
    // serially-irrevocably in software.
    EnterSerial(d);
    d.start = clock_.Load();
    TCS_PROTO(proto_->OnClockObserved(d.tid, d.start));
    quiesce_.SetActive(d.tid, d.start);
    return;
  }
  d.htm_serial = false;
  // A hardware transaction cannot start while a serial transaction runs.
  // mo: seq_cst — [serial-token]: poll the token in the same total order
  // EnterSerial/ExitSerial store it in.
  // seq_cst-required: Dekker read leg — the poll must not be reorderable
  // around the seq baseline load below.
  while (serial_owner_.load(std::memory_order_seq_cst) != -1) {
    CpuYield();
  }
  // mo: seq_cst — [serial-token]: baseline for SerialInterference's seq
  // re-check; ordered after the token poll above so a serial section between
  // the two is caught by either.
  // seq_cst-required: the baseline must sit between the token poll and later
  // re-checks in the single total order; acquire would allow a stale baseline
  // that masks a completed serial section.
  d.htm_serial_seq0 = serial_seq_.load(std::memory_order_seq_cst);
  d.start = clock_.Load();
  TCS_PROTO(proto_->OnClockObserved(d.tid, d.start));
  quiesce_.SetActive(d.tid, d.start);
}

void SimHtm::HwAbort(TxDesc& d, Counter reason, AbortCause cause,
                     const Orec* conflict) {
  d.htm_attempts++;
  if (reason == Counter::kHtmCapacityAborts) {
    // A capacity overflow will recur; go straight to the software fallback.
    d.htm_attempts = cfg_.htm_max_attempts;
  }
  AbortCurrent(d, reason, cause, conflict);
}

TmWord SimHtm::ReadWord(TxDesc& d, const TmWord* addr) {
  if (d.htm_serial) {
    // Serial-irrevocable software mode: direct access, no concurrency.
    return LoadWordAcquire(addr);
  }
  if (SerialInterference(d)) {
    HwAbort(d, Counter::kHtmConflictAborts, AbortCause::kHtmConflict);
  }
  TmWord v;
  if (d.redo.Lookup(addr, &v)) {
    return v;
  }
  Orec& line = orecs_.For(addr);
  // mo: acquire — pairs with the committer's release store [orec-publish];
  // seeing an unlocked line version makes the written-back data visible.
  std::uint64_t w1 = line.word.load(std::memory_order_acquire);
  if (Orec::IsLocked(w1)) {
    if (Orec::Owner(w1) == d.tid) {
      // Line owned by us but this word not in the redo log: memory is clean.
      return LoadWordAcquire(addr);
    }
    // Requester loses: encountering another transaction's line aborts us, the
    // eager behavior that makes HTM abort on read-write conflicts lazy STM
    // tolerates (§2.4.1).
    HwAbort(d, Counter::kHtmConflictAborts, AbortCause::kHtmConflict, &line);
  }
  v = LoadWordAcquire(addr);
  // mo: acquire — re-check leg of the sample/read/re-check snapshot; pairs
  // with [orec-publish] so a w1==w2 match proves no release intervened.
  std::uint64_t w2 = line.word.load(std::memory_order_acquire);
  if (w1 != w2 || Orec::Version(w1) > d.start) {
    HwAbort(d, Counter::kHtmConflictAborts, AbortCause::kHtmConflict, &line);
  }
  if (d.reads.empty() || d.reads.back() != &line) {
    d.reads.push_back(&line);
    if (d.reads.size() > cfg_.htm_read_capacity_lines) {
      HwAbort(d, Counter::kHtmCapacityAborts, AbortCause::kHtmCapacity);
    }
  }
  return v;
}

void SimHtm::WriteWord(TxDesc& d, TmWord* addr, TmWord val) {
  if (d.htm_serial) {
    d.undo.Append(addr, LoadWordRelaxed(addr));
    StoreWordRelease(addr, val);
    return;
  }
  if (SerialInterference(d)) {
    HwAbort(d, Counter::kHtmConflictAborts, AbortCause::kHtmConflict);
  }
  Orec& line = orecs_.For(addr);
  // mo: acquire — pairs with [orec-publish]; the CAS below must key on a line
  // version published by a completed release.
  std::uint64_t w = line.word.load(std::memory_order_acquire);
  if (Orec::IsLocked(w)) {
    if (Orec::Owner(w) != d.tid) {
      HwAbort(d, Counter::kHtmConflictAborts, AbortCause::kHtmConflict, &line);
    }
  } else if (Orec::Version(w) > d.start ||
             // mo: acq_rel — the acquire leg pairs with the previous owner's
             // release store [orec-publish]; the release leg publishes the
             // locked word other threads' acquire samples key on.
             !line.word.compare_exchange_strong(w, Orec::MakeLocked(d.tid),
                                                std::memory_order_acq_rel)) {
    HwAbort(d, Counter::kHtmConflictAborts, AbortCause::kHtmConflict, &line);
  } else {
    TCS_PROTO(proto_->OnOrecAcquire(&line, d.tid, Orec::Version(w)));
    d.locks.push_back({&line, Orec::Version(w)});
    if (d.locks.size() > cfg_.htm_write_capacity_lines) {
      HwAbort(d, Counter::kHtmCapacityAborts, AbortCause::kHtmCapacity);
    }
  }
  d.redo.Put(addr, val);
}

bool SimHtm::CommitTx(TxDesc& d) {
  if (d.htm_serial) {
    bool writer = !d.undo.Empty();
    // Serial mode holds no orecs; the targeted wake pass derives the write
    // set's lines from the undo log before it is discarded.
    SnapshotCommitOrecsFromUndoIfNeeded(d);
    d.undo.Clear();
    d.reads.clear();
    quiesce_.SetInactive(d.tid);
    ExitSerial(d);
    return writer;
  }
  if (d.redo.Empty()) {
    d.reads.clear();
    quiesce_.SetInactive(d.tid);
    return false;
  }
  // Announce the commit so serial entry drains us, then re-check the token
  // (Dekker-style: either we see the token and abort, or serial entry sees our
  // flag and waits).
  // mo: seq_cst — [serial-token] Dekker: the flag store must be totally
  // ordered against EnterSerial's token store and drain loop.
  // seq_cst-required: Dekker write leg — W(flag)/R(token) vs the entrant's
  // W(token)/R(flags); release would let both sides miss each other.
  quiesce_.CommitFlag(d.tid).store(1, std::memory_order_seq_cst);
  if (SerialInterference(d)) {
    HwAbort(d, Counter::kHtmConflictAborts, AbortCause::kHtmConflict);
  }
  std::uint64_t end = clock_.Increment();
  TCS_PROTO(proto_->OnClockObserved(d.tid, end));
  if (end != d.start + 1) {
    for (Orec* line : d.reads) {
      // mo: acquire — pairs with [orec-publish]; an unlocked version ≤ start
      // proves the covered lines still hold the data this transaction read.
      std::uint64_t w = line->word.load(std::memory_order_acquire);
      if (Orec::IsLocked(w)) {
        if (Orec::Owner(w) != d.tid) {
          HwAbort(d, Counter::kHtmConflictAborts, AbortCause::kHtmConflict,
                  line);
        }
      } else if (Orec::Version(w) > d.start) {
        HwAbort(d, Counter::kHtmConflictAborts, AbortCause::kHtmConflict,
                line);
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
  // mo: seq_cst — [serial-token] Dekker: clearing the flag in the same total
  // order EnterSerial's drain loop polls it in.
  // seq_cst-required: the drain loop's exit decision quantifies over the
  // single total order of flag accesses.
  quiesce_.CommitFlag(d.tid).store(0, std::memory_order_seq_cst);
  quiesce_.SetInactive(d.tid);
  if (cfg_.privatization_safety) {
    // Real HTM commits are atomic and privatization-safe by construction; the
    // emulated write-back is not, so reuse the STM quiescence fence.
    d.stats.Bump(Counter::kQuiesceCalls);
    quiesce_.WaitForReadersBefore(end, d.tid);
  }
  return true;
}

void SimHtm::Rollback(TxDesc& d) {
  if (d.htm_serial) {
    d.undo.UndoAll();
    d.undo.Clear();
    d.reads.clear();
    d.redo.Clear();
    d.locks.clear();
    quiesce_.SetInactive(d.tid);
    ExitSerial(d);
    return;
  }
  // Buffered writes never reached memory; restore exact line versions.
  for (const LockedOrec& l : d.locks) {
    TCS_PROTO(proto_->OnOrecRelease(l.orec, d.tid, l.prev_version,
                                    ProtocolChecker::ReleaseKind::kAbortExact));
    // mo: release — [orec-publish]: memory under the line was never modified,
    // but the unlock itself must still pair with concurrent acquire samples.
    l.orec->word.store(Orec::MakeVersion(l.prev_version), std::memory_order_release);
  }
  // mo: seq_cst — [serial-token] Dekker: clearing the flag in the same total
  // order EnterSerial's drain loop polls it in.
  // seq_cst-required: the drain loop's exit decision quantifies over the
  // single total order of flag accesses.
  quiesce_.CommitFlag(d.tid).store(0, std::memory_order_seq_cst);
  d.locks.clear();
  d.reads.clear();
  d.redo.Clear();
  d.undo.Clear();
  quiesce_.SetInactive(d.tid);
}

// OrElse partial rollback. In hardware mode writes are buffered (redo log,
// like lazy STM); in serial-irrevocable software mode they are in place with
// undo logging (like eager STM). Buffered mode releases the lines the branch
// acquired at their exact pre-acquisition version: memory was never touched,
// so no version bump is needed (the same reasoning as Rollback's restore), a
// re-acquisition by the surviving branch validates exactly as the first one
// did, and this transaction's own reads of those lines stay valid.
void SimHtm::PartialRollback(TxDesc& d, const TxSavepoint& sp) {
  if (d.htm_serial) {
    d.undo.UndoTo(sp.undo_size);
    return;
  }
  d.redo.RollbackTo(sp.redo);
  // Always-on: OrElse partial rollback is rare, and a stale savepoint here
  // would release (and corrupt) lines the surviving branch still owns.
  TCS_CHECK(sp.locks_size <= d.locks.size());
  std::size_t released = d.locks.size() - sp.locks_size;
  for (std::size_t i = sp.locks_size; i < d.locks.size(); ++i) {
    const LockedOrec& l = d.locks[i];
    TCS_PROTO(proto_->OnOrecRelease(l.orec, d.tid, l.prev_version,
                                    ProtocolChecker::ReleaseKind::kAbortExact));
    // mo: release — [orec-publish]: buffered writes never reached memory; the
    // unlock still pairs with concurrent acquire samples.
    l.orec->word.store(Orec::MakeVersion(l.prev_version),
                       std::memory_order_release);
  }
  d.locks.resize(sp.locks_size);
  if (released > 0) {
    d.stats.Bump(Counter::kOrElseOrecReleases, released);
    if (cfg_.timestamp_extension) {
      // Unlike eager's prev+1 bump, the exact-version release leaves the
      // transaction consistent as-is, so the shared extension is opportunistic
      // here: on success the surviving branch tolerates more foreign commits
      // before aborting; on failure `start` is untouched and commit-time
      // validation still decides.
      TryExtendTimestamp(d, ExtendSite::kOrecRelease);
    }
  }
}

TmWord SimHtm::PreTxValue(TxDesc& d, const TmWord* addr, TmWord observed) {
  // Waitset logging only happens in serial software mode (hardware transactions
  // cannot publish waitsets), where updates are in place with undo logging.
  TmWord original;
  if (d.undo.FindOriginal(addr, &original)) {
    return original;
  }
  return observed;
}

void SimHtm::PrepareAwait(TxDesc& d, const TmWord* const* addrs, std::size_t n) {
  TCS_CHECK_MSG(d.htm_serial, "Await in hardware mode must switch to software first");
  d.undo.UndoAll();
  d.undo.Clear();
  d.waitset.Clear();
  for (std::size_t i = 0; i < n; ++i) {
    TmWord v = LoadWordAcquire(addrs[i]);
    d.waitset.Append(addrs[i], v);
  }
}

bool SimHtm::NeedsSoftwareForCondSync(TxDesc& d) { return !d.htm_serial; }

bool SimHtm::EnterWakeClaimRegion(TxDesc& d) {
  // A CAS wake claim locks the slot's covering orec and writes the slot word
  // directly — safe against hardware transactions (they respect orecs) but
  // not against a serial-irrevocable writer, which bypasses orecs entirely.
  // Join the same Dekker handshake a hardware commit uses: announce, then
  // re-check the token. Either the serial entrant sees our flag and drains
  // us, or we see its token/seq and bail to the wake transaction (whose
  // Begin participates in serial entry properly).
  // (SerialInterference's seq re-check is NOT used here: its baseline seq
  // sample belongs to the last transaction, and a serial section that fully
  // completed before this region began is harmless — its writes are settled.)
  // mo: seq_cst — [serial-token] Dekker: the flag store must be totally
  // ordered against EnterSerial's token store and drain loop.
  // seq_cst-required: Dekker write leg — W(flag)/R(token) vs the entrant's
  // W(token)/R(flags); release would let both sides miss each other.
  quiesce_.CommitFlag(d.tid).store(1, std::memory_order_seq_cst);
  // mo: seq_cst — [serial-token] Dekker: either our flag store precedes the
  // serial entrant's token store (its drain loop waits on us), or the token
  // store precedes this load (we see it and bail).
  // seq_cst-required: Dekker read leg — the re-check after the flag store is
  // the half that makes the exclusion total; acquire could read a stale -1.
  if (serial_owner_.load(std::memory_order_seq_cst) != -1) {
    // mo: seq_cst — [serial-token] Dekker: clearing the flag in the same
    // total order EnterSerial's drain loop polls it in.
    // seq_cst-required: the drain loop's exit decision quantifies over the
    // single total order of flag accesses.
    quiesce_.CommitFlag(d.tid).store(0, std::memory_order_seq_cst);
    return false;
  }
  return true;
}

void SimHtm::ExitWakeClaimRegion(TxDesc& d) {
  // mo: seq_cst — [serial-token] Dekker: clearing the flag in the same total
  // order EnterSerial's drain loop polls it in.
  // seq_cst-required: the drain loop's exit decision quantifies over the
  // single total order of flag accesses.
  quiesce_.CommitFlag(d.tid).store(0, std::memory_order_seq_cst);
}

void SimHtm::SwitchToSoftwareMode(TxDesc& d, bool enable_retry_logging) {
  // The hardware transaction aborts with the condition-synchronization code and
  // the dispatcher re-executes it serially, where escape actions are legal.
  d.htm_abort_code = kHtmAbortCondSync;
  d.htm_software_next = true;
  if (enable_retry_logging) {
    d.retry_logging = true;
  }
  d.skip_backoff = true;
  AbortCurrent(d, Counter::kHtmExplicitAborts, AbortCause::kHtmExplicit);
}

}  // namespace tcs
