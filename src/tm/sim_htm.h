// Simulated best-effort hardware transactional memory.
//
// The container running this reproduction has no (guaranteed) Intel TSX, so this
// backend emulates the *interface contract* of best-effort HTM plus GCC's "htm"
// runtime, which is all the paper's mechanism design depends on:
//
//  * conflict detection at 64-byte cache-line granularity, requester-loses on
//    encountering another transaction's line;
//  * capacity aborts beyond configurable read/write line budgets;
//  * explicit aborts (Intel XABORT), which the condition-synchronization layer
//    uses to request a software-mode re-execution; the paper's §2.2.6 idea of
//    using XABORT's 8-bit code to name a registered WaitPred predicate, and so
//    skip that re-execution, is not modelled;
//  * no escape actions inside a hardware transaction — a transaction cannot
//    publish a waitset or sleep without first aborting (§2.2.2);
//  * progress rule: after `htm_max_attempts` hardware aborts the transaction
//    re-executes in a serial-irrevocable software mode under a global lock, which
//    *does* permit escape actions — this is where Retry/Await/WaitPred run
//    (§2.4.1: "we suspend concurrency so that the transaction can run in a
//    software mode that allows for escape actions").
//
// Mechanically it is a TL2-style scheme at cache-line granularity with eager line
// locking: hardware reads validate ⟨line unlocked/owned, version ≤ start⟩, writes
// acquire the line and buffer the data, commit validates and writes back. Serial
// mode takes a global token that every hardware transaction subscribes to (reads
// on every access, exactly like GCC's serial-mode word), runs with direct writes
// plus an undo log, and drains in-flight hardware commits before proceeding.
#ifndef TCS_TM_SIM_HTM_H_
#define TCS_TM_SIM_HTM_H_

#include <atomic>

#include "src/common/spin_lock.h"
#include "src/tm/tm_system.h"

namespace tcs {

class SimHtm final : public TmSystem {
 public:
  explicit SimHtm(const TmConfig& config);

  bool InSerialMode() { return Desc().htm_serial; }

 protected:
  void BeginTx(TxDesc& d) override;
  bool CommitTx(TxDesc& d) override;
  TmWord ReadWord(TxDesc& d, const TmWord* addr) override;
  void WriteWord(TxDesc& d, TmWord* addr, TmWord val) override;
  void Rollback(TxDesc& d) override;
  void PartialRollback(TxDesc& d, const TxSavepoint& sp) override;
  TmWord PreTxValue(TxDesc& d, const TmWord* addr, TmWord observed) override;
  void PrepareAwait(TxDesc& d, const TmWord* const* addrs, std::size_t n) override;
  bool NeedsSoftwareForCondSync(TxDesc& d) override;
  [[noreturn]] void SwitchToSoftwareMode(TxDesc& d, bool enable_retry_logging) override;
  // CAS wake-claim fast path: serial-irrevocable software mode writes with no
  // orecs, so a non-transactional claimer must join the commit-flag /
  // serial-token Dekker handshake (same shape as CommitTx's hardware commit
  // window). Returns false — caller falls back to the wake transaction — when
  // a serial section is active or pending.
  bool EnterWakeClaimRegion(TxDesc& d) override;
  void ExitWakeClaimRegion(TxDesc& d) override;

 private:
  friend class TmSystem;

  void EnterSerial(TxDesc& d);
  void ExitSerial(TxDesc& d);
  bool SerialInterference(const TxDesc& d) const {
    // mo: seq_cst (both loads) — [serial-token] Dekker: totally ordered against
    // EnterSerial's token/seq stores and this thread's commit-flag store,
    // so a serial section cannot slip between the flag store and this check.
    // seq_cst-required: Dekker read leg — with acquire loads, this check and
    // the serial entrant's drain loop could both read pre-store values and a
    // serial section would run concurrently with a hardware commit.
    return serial_owner_.load(std::memory_order_seq_cst) != -1 ||
           serial_seq_.load(std::memory_order_seq_cst) != d.htm_serial_seq0;
  }
  [[noreturn]] void HwAbort(TxDesc& d, Counter reason, AbortCause cause,
                            const Orec* conflict = nullptr);

  // Serial-irrevocable mode token. Hardware transactions subscribe by checking it
  // on every access; `serial_seq_` catches transactions that were entirely passive
  // across a serial section.
  std::atomic<int> serial_owner_{-1};
  std::atomic<std::uint64_t> serial_seq_{0};
  SpinLock serial_entry_lock_;
};

}  // namespace tcs

#endif  // TCS_TM_SIM_HTM_H_
