// Transaction-safe condition variables (the evaluation's "TMCondVar" baseline,
// after Wang et al., SPAA 2014).
//
// Unlike Retry/Await/WaitPred, a condvar wait *breaks atomicity*: Wait() commits
// the in-flight transaction at the wait point — exposing any partial updates — then
// sleeps, and after wakeup the atomic block restarts from the top (the explicit
// `while(true)` retry loop of the paper's Algorithm 2, folded into Atomically()).
// Signals issued inside a transaction are deferred until that transaction commits.
//
// The waiter queue itself is transactional state: the enqueue is part of the
// committing transaction, so a waiter can never miss a signal from a writer whose
// commit serialized after its wait-commit (the predicate it tested and the enqueue
// are one atomic action). The ring, its capacity, and both cursors are all read
// and written transactionally; a full ring grows transactionally (TxAlloc + copy
// + TxFree of the old ring, made safe by commit-time quiescence) instead of
// silently overwriting a parked waiter's entry.
#ifndef TCS_CONDSYNC_TM_CONDVAR_H_
#define TCS_CONDSYNC_TM_CONDVAR_H_

#include <cstddef>
#include <vector>

#include "src/tm/word.h"

namespace tcs {

class TmSystem;

class TmCondVar {
 public:
  // `capacity` (> 0, checked) sizes the initial ring; each thread has at most
  // one queue entry at a time, and the ring grows transactionally if more
  // threads than expected wait concurrently.
  explicit TmCondVar(int capacity);
  ~TmCondVar();

  TmCondVar(const TmCondVar&) = delete;
  TmCondVar& operator=(const TmCondVar&) = delete;

  // Must be called inside a transaction. Transactionally enqueues the caller,
  // commits the in-flight transaction (atomicity break), sleeps until signaled,
  // then restarts the atomic block.
  [[noreturn]] void Wait(TmSystem& sys);

  // Wake one / all waiters. Inside a transaction the signal is deferred to commit;
  // outside it takes effect immediately.
  void Signal(TmSystem& sys);
  void Broadcast(TmSystem& sys);

  // Post-commit execution of a deferred signal (called by the runtime).
  void SignalNow(TmSystem& sys);
  void BroadcastNow(TmSystem& sys);

 private:
  // Doubles the ring inside the caller's in-flight transaction. `h`/`t`/`cap`
  // are the values the transaction already read.
  void Grow(TmSystem& sys, TmWord h, TmWord t, TmWord cap);

  // Pops up to `max` waiting tids inside ONE internal transaction, appending
  // them to `out`; returns the number popped. Posting the popped waiters'
  // park spots is the caller's job, strictly after this commits.
  std::size_t PopBatch(TmSystem& sys, std::size_t max, std::vector<int>& out);

  // All four words are transactional state (accessed via sys.Read/Write).
  // ring_ holds the current buffer pointer as a TmWord: growth retargets it
  // transactionally, so concurrent pops and enqueues see pointer, capacity,
  // and cursors change atomically.
  TmWord cap_;
  TmWord ring_;  // TmWord* holding waiting tids
  TmWord head_ = 0;
  TmWord tail_ = 0;
};

}  // namespace tcs

#endif  // TCS_CONDSYNC_TM_CONDVAR_H_
