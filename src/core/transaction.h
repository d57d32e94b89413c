// The public transactional programming surface: the Tx handle passed to
// transaction bodies, and the Atomically() execution loop.
//
// lint:hot-path — per-access TM fast path: TCS_DCHECK must not appear inside
// loops here (tools/tm_analyze.py); use TCS_CHECK on slow paths.
//
// A body may execute any number of times (conflict aborts, Retry re-executions,
// deschedule wakeups), so it must be side-effect-free except through Tx operations
// — the standard TM programming model. Re-invoking the body lambda plays the role
// of the paper's checkpoint restore.
//
// Data access comes in two layers:
//  * TVar<T> (core/tvar.h) — the typed surface: any trivially-copyable T,
//    stored in word-aligned cells the library owns, no size restriction. This
//    is the only surface the library, the sync adapters, the mini-PARSEC apps,
//    the benchmarks, and the examples use.
//  * raw Load/Store on plain lvalues — the original word-granularity shim.
//    Compiled out unless TCS_ENABLE_RAW_TX_SHIM is defined, which only the
//    word-granularity TM tests do (they probe orec mapping and sub-word
//    splicing directly). Application code cannot regress onto it: the library
//    itself builds without the define.
//
// Composition:
//  * tx.OrElse(b1, b2) — run b1; if it Retry()s, roll its speculative writes
//    back and run b2; if both retry, the transaction descheds on the union of
//    both branches' read sets (composable choice, §1.2 / composable STM).
//  * tx.RetryFor/AwaitFor/WaitPredFor — bounded waits returning
//    WaitResult::kTimedOut once the (restart-spanning) deadline expires.
#ifndef TCS_CORE_TRANSACTION_H_
#define TCS_CORE_TRANSACTION_H_

#include <array>
#include <chrono>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <source_location>
#include <type_traits>
#include <utility>

#include "src/common/assert.h"
#include "src/condsync/tm_condvar.h"
#include "src/core/tvar.h"
#include "src/tm/tm_system.h"
#include "src/tm/tx_exceptions.h"

namespace tcs {

class Tx {
 public:
  explicit Tx(TmSystem& sys) : sys_(sys) {}

  // --- transactional data access: TVar<T> (preferred) ---
  template <typename T>
  T Load(const TVar<T>& var) const {
    std::array<TmWord, TVar<T>::kWords> img;
    for (std::size_t i = 0; i < TVar<T>::kWords; ++i) {
      img[i] = sys_.Read(var.word(i));
    }
    return TVar<T>::Decode(img);
  }

  template <typename T>
  void Store(TVar<T>& var, const T& val) const {
    const std::array<TmWord, TVar<T>::kWords> img = TVar<T>::Encode(val);
    for (std::size_t i = 0; i < TVar<T>::kWords; ++i) {
      sys_.Write(var.word_mut(i), img[i]);
    }
  }

#if defined(TCS_ENABLE_RAW_TX_SHIM)
  // --- transactional data access: raw lvalues (test-only shim) ---
  // T must be trivially copyable, at most word-sized, and must not straddle an
  // aligned 8-byte boundary. Sub-word accesses are spliced into the containing
  // word, which is how word-granular STMs handle them. TVar<T> lifts all three
  // restrictions and is the only surface available without the define.
  template <typename T>
    requires(!kIsTVar<T>)
  T Load(const T& src) const {
    CheckType<T>();
    auto a = reinterpret_cast<std::uintptr_t>(&src);
    if constexpr (sizeof(T) == sizeof(TmWord)) {
      TCS_DCHECK(a % sizeof(TmWord) == 0);
      TmWord w = sys_.Read(reinterpret_cast<const TmWord*>(a));
      T out;
      std::memcpy(&out, &w, sizeof(T));
      return out;
    } else {
      std::uintptr_t base = a & ~(sizeof(TmWord) - 1);
      std::size_t off = a - base;
      TCS_DCHECK(off + sizeof(T) <= sizeof(TmWord));
      TmWord w = sys_.Read(reinterpret_cast<const TmWord*>(base));
      T out;
      std::memcpy(&out, reinterpret_cast<const char*>(&w) + off, sizeof(T));
      return out;
    }
  }

  template <typename T>
    requires(!kIsTVar<T>)
  void Store(T& dst, T val) const {
    CheckType<T>();
    auto a = reinterpret_cast<std::uintptr_t>(&dst);
    if constexpr (sizeof(T) == sizeof(TmWord)) {
      TCS_DCHECK(a % sizeof(TmWord) == 0);
      TmWord w;
      std::memcpy(&w, &val, sizeof(T));
      sys_.Write(reinterpret_cast<TmWord*>(a), w);
    } else {
      std::uintptr_t base = a & ~(sizeof(TmWord) - 1);
      std::size_t off = a - base;
      TCS_DCHECK(off + sizeof(T) <= sizeof(TmWord));
      TmWord w = sys_.Read(reinterpret_cast<TmWord*>(base));
      std::memcpy(reinterpret_cast<char*>(&w) + off, &val, sizeof(T));
      sys_.Write(reinterpret_cast<TmWord*>(base), w);
    }
  }
#endif  // TCS_ENABLE_RAW_TX_SHIM

  // --- transactional allocation ---
  void* AllocBytes(std::size_t n) const { return sys_.TxAlloc(n); }
  void FreeBytes(void* p) const { sys_.TxFree(p); }

  // --- condition synchronization ---
  // Inside an OrElse branch that still has an alternative, Retry() transfers
  // control to that alternative instead of descheduling (see OrElse below).
  [[noreturn]] void Retry() const {
    if (sys_.OrElseAltPending()) {
      throw TxRetrySignal{};
    }
    sys_.Retry();
  }

#if defined(TCS_ENABLE_RAW_TX_SHIM)
  // Await on the words containing the given variables (Algorithm 6). Like
  // Retry, an Await inside an OrElse branch with an alternative pending
  // transfers to the alternative instead of descheduling — every wait style
  // composes uniformly under OrElse.
  template <typename... Ts>
    requires(!kIsTVar<Ts> && ...)
  [[noreturn]] void Await(const Ts&... vars) const {
    if (sys_.OrElseAltPending()) {
      throw TxRetrySignal{};
    }
    const TmWord* addrs[] = {WordAddrOf(vars)...};
    sys_.Await(addrs, sizeof...(Ts));
  }
#endif  // TCS_ENABLE_RAW_TX_SHIM

  // Await on every backing word of the given TVars.
  template <typename... Ts>
  [[noreturn]] void Await(const TVar<Ts>&... vars) const {
    if (sys_.OrElseAltPending()) {
      throw TxRetrySignal{};
    }
    constexpr std::size_t kN = (TVar<Ts>::kWords + ... + 0);
    static_assert(kN > 0, "Await needs at least one variable");
    const TmWord* addrs[kN];
    std::size_t i = 0;
    (AppendWords(vars, addrs, i), ...);
    sys_.Await(addrs, kN);
  }

  [[noreturn]] void WaitPred(WaitPredFn fn, const WaitArgs& args) const {
    if (sys_.OrElseAltPending()) {
      throw TxRetrySignal{};
    }
    sys_.WaitPred(fn, args);
  }

  // --- bounded waits ---
  // Wait like Retry/Await/WaitPred, but give up after `timeout` of total
  // elapsed time. On expiry the call returns WaitResult::kTimedOut from a
  // fresh execution of the body, which stays live and committable — the idiom:
  //
  //   auto got = Atomically(sys, [&](Tx& tx) -> std::optional<V> {
  //     if (tx.Load(count) == 0) {
  //       if (tx.RetryFor(100ms) == WaitResult::kTimedOut) return std::nullopt;
  //     }
  //     return TakeOne(tx);
  //   });
  //
  // A satisfied wait never returns (the wakeup restarts the body), and
  // RetryFor(kNoTimeout) is exactly Retry(). Inside an OrElse branch with an
  // alternative pending, a bounded retry also transfers to the alternative.
  // Each call site gets its own deadline (keyed by source location here, by
  // address set for AwaitFor): the deadline spans the transaction's restarts,
  // but a later, different wait in the same transaction starts a fresh clock.
  WaitResult RetryFor(
      std::chrono::nanoseconds timeout,
      std::source_location loc = std::source_location::current()) const {
    if (sys_.OrElseAltPending()) {
      throw TxRetrySignal{};
    }
    return sys_.RetryFor(timeout, WaitKeyOf(loc));
  }

#if defined(TCS_ENABLE_RAW_TX_SHIM)
  template <typename... Ts>
    requires(!kIsTVar<Ts> && ...)
  WaitResult AwaitFor(std::chrono::nanoseconds timeout, const Ts&... vars) const {
    if (sys_.OrElseAltPending()) {
      throw TxRetrySignal{};
    }
    const TmWord* addrs[] = {WordAddrOf(vars)...};
    return sys_.AwaitFor(addrs, sizeof...(Ts), timeout);
  }
#endif  // TCS_ENABLE_RAW_TX_SHIM

  template <typename... Ts>
  WaitResult AwaitFor(std::chrono::nanoseconds timeout,
                      const TVar<Ts>&... vars) const {
    if (sys_.OrElseAltPending()) {
      throw TxRetrySignal{};
    }
    constexpr std::size_t kN = (TVar<Ts>::kWords + ... + 0);
    static_assert(kN > 0, "AwaitFor needs at least one variable");
    const TmWord* addrs[kN];
    std::size_t i = 0;
    (AppendWords(vars, addrs, i), ...);
    return sys_.AwaitFor(addrs, kN, timeout);
  }

  WaitResult WaitPredFor(
      WaitPredFn fn, const WaitArgs& args, std::chrono::nanoseconds timeout,
      std::source_location loc = std::source_location::current()) const {
    if (sys_.OrElseAltPending()) {
      throw TxRetrySignal{};
    }
    return sys_.WaitPredFor(fn, args, timeout, WaitKeyOf(loc));
  }

  // --- composable choice (orElse) ---
  // Runs `body1` (a callable taking Tx&). If it completes, its result is the
  // result of the whole OrElse. If it waits — Retry(), Await(), WaitPred(),
  // or any of their timed variants — its speculative writes
  // (and transactional allocations) are rolled back to the savepoint taken
  // here and `body2` runs against the restored state. If body2 also retries
  // (with no further alternative), the transaction descheds normally — and
  // because the retry waitset keeps entries across the partial rollback, the
  // thread wakes on a write to *either* branch's read set, the composed-choice
  // guarantee of composable STM. Nests: in OrElse(a, OrElse-free b) inside
  // OrElse(x, y), retries cascade innermost-first.
  template <typename B1, typename B2>
  auto OrElse(B1&& body1, B2&& body2) const {
    using R = std::invoke_result_t<B1&, Tx&>;
    static_assert(std::is_same_v<R, std::invoke_result_t<B2&, Tx&>>,
                  "OrElse branches must return the same type");
    Tx tx(sys_);
    const TxSavepoint sp = sys_.TakeSavepoint();
    sys_.EnterOrElse();
    try {
      if constexpr (std::is_void_v<R>) {
        body1(tx);
        sys_.ExitOrElse();
        return;
      } else {
        R result = body1(tx);
        sys_.ExitOrElse();
        return result;
      }
    } catch (const TxRetrySignal&) {
      sys_.ExitOrElse();
      sys_.OnOrElseFallback();
      sys_.RollbackToSavepoint(sp);
      return body2(tx);
    }
  }

  [[noreturn]] void RetryOrig() const { sys_.RetryOrig(); }
  [[noreturn]] void RestartNow() const { sys_.RestartNow(); }

  // --- transactional condition variables (baseline) ---
  [[noreturn]] void CondWait(TmCondVar& cv) const { cv.Wait(sys_); }
  void CondSignal(TmCondVar& cv) const { cv.Signal(sys_); }
  void CondBroadcast(TmCondVar& cv) const { cv.Broadcast(sys_); }

  TmSystem& sys() const { return sys_; }

 private:
  static std::uint64_t WaitKeyOf(const std::source_location& loc) {
    return reinterpret_cast<std::uintptr_t>(loc.file_name()) ^
           (static_cast<std::uint64_t>(loc.line()) << 20) ^
           (static_cast<std::uint64_t>(loc.column()) << 1) ^ 1;
  }

#if defined(TCS_ENABLE_RAW_TX_SHIM)
  template <typename T>
  static constexpr void CheckType() {
    static_assert(std::is_trivially_copyable_v<T>, "transactional data must be POD");
    static_assert(sizeof(T) <= sizeof(TmWord),
                  "word-granularity raw access: sizeof(T) <= 8 — use TVar<T> "
                  "for larger types");
  }

  template <typename T>
  static const TmWord* WordAddrOf(const T& var) {
    CheckType<T>();
    auto a = reinterpret_cast<std::uintptr_t>(&var);
    return reinterpret_cast<const TmWord*>(a & ~(sizeof(TmWord) - 1));
  }
#endif  // TCS_ENABLE_RAW_TX_SHIM

  template <typename T>
  static void AppendWords(const TVar<T>& v, const TmWord** out, std::size_t& i) {
    for (std::size_t w = 0; w < TVar<T>::kWords; ++w) {
      out[i++] = v.word(w);
    }
  }

  TmSystem& sys_;
};

// Runs `body` (callable taking Tx&) as a transaction, re-executing it until it
// commits. Nested calls run flat (subsumption nesting, Appendix A): the inner body
// executes inline inside the enclosing transaction, so an inner Retry unrolls the
// outermost transaction — the composability property of §1.2.
//
// A wait throws TxRestart as soon as it has rolled the attempt back, and
// OnRestart, called once the handler has finished, runs the wait it recorded:
// the sleep happens after the unwind and outside any catch handler, and a
// woken thread goes straight into its next attempt.
template <typename Body>
auto Atomically(TmSystem& sys, Body&& body) {
  using R = std::invoke_result_t<Body&, Tx&>;
  Tx tx(sys);
  if (sys.InTx()) {
    return body(tx);
  }
  if constexpr (std::is_void_v<R>) {
    for (;;) {
      sys.Begin();
      try {
        body(tx);
        sys.Commit();
        return;
      } catch (const TxRestart&) {
      }
      sys.OnRestart();
    }
  } else {
    for (;;) {
      sys.Begin();
      try {
        R result = body(tx);
        sys.Commit();
        return result;
      } catch (const TxRestart&) {
      }
      sys.OnRestart();
    }
  }
}

// Convenience: Atomically(sys, b1 `orElse` b2).
template <typename B1, typename B2>
auto AtomicallyOrElse(TmSystem& sys, B1&& body1, B2&& body2) {
  return Atomically(sys, [&](Tx& tx) { return tx.OrElse(body1, body2); });
}

}  // namespace tcs

#endif  // TCS_CORE_TRANSACTION_H_
