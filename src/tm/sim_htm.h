// Simulated best-effort hardware transactional memory.
//
// The container running this reproduction has no (guaranteed) Intel TSX, so this
// backend emulates the *interface contract* of best-effort HTM plus GCC's "htm"
// runtime, which is all the paper's mechanism design depends on:
//
//  * conflict detection at 64-byte cache-line granularity, requester-loses on
//    encountering another transaction's line;
//  * capacity aborts beyond configurable read/write line budgets;
//  * explicit aborts carrying an 8-bit code (Intel XABORT);
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

#include <array>
#include <atomic>

#include "src/common/spin_lock.h"
#include "src/tm/tm_system.h"

namespace tcs {

// Explicit-abort codes (the 8-bit XABORT immediate). Values 1..255 are available;
// the condition-synchronization layer reserves one for "re-execute in software
// mode"; with the pred-table extension (§2.2.6) the remaining values index
// registered WaitPred predicates.
inline constexpr std::uint8_t kHtmAbortCondSync = 0xFF;

class SimHtm final : public TmSystem {
 public:
  explicit SimHtm(const TmConfig& config);

  // §2.2.6 extension: register a ⟨predicate, arguments⟩ combination so a hardware
  // transaction can request descheduling via its 8-bit abort code, with no
  // software-mode re-execution ("if the total set of reschedule function/
  // parameter combinations is less than 255"). Returns the table index
  // (1..254), or 0 if the table is full. Requires config htm_pred_table.
  std::uint8_t RegisterPred(WaitPredFn fn, const WaitArgs& args);

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
  void MaybeHwPredTableDeschedule(TxDesc& d, WaitPredFn fn,
                                  const WaitArgs& args) override;
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

  // Pred-table extension state.
  struct PredEntry {
    WaitPredFn fn = nullptr;
    WaitArgs args;
  };
  std::uint8_t LookupPred(WaitPredFn fn, const WaitArgs& args);

  SpinLock pred_table_lock_;
  std::array<PredEntry, 256> pred_table_{};
  std::atomic<int> pred_table_size_{0};
};

}  // namespace tcs

#endif  // TCS_TM_SIM_HTM_H_
