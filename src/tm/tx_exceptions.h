// Internal control-flow signal for transaction restart.
//
// A conflict abort, an explicit Restart, a Retry/Await/WaitPred deschedule, a
// Retry-Orig wait and a TMCondVar wait all end the current attempt and transfer
// control back to the Atomically() loop, which re-invokes the transaction body.
// The throw happens only after the backend has fully rolled the attempt back, so
// stack unwinding runs user destructors against a memory state "as if the
// transaction never ran".
//
// A wait throws *before* it sleeps: it records itself in the descriptor
// (TxDesc::pending), and the restart loop's TmSystem::OnRestart() runs it once
// the unwind is over. So those destructors run before the thread registers or
// parks, and a body must let TxRestart reach the restart loop: catching it and
// leaving by another exception strands the recorded wait, which the next
// transaction the thread begins reports as a fatal error.
#ifndef TCS_TM_TX_EXCEPTIONS_H_
#define TCS_TM_TX_EXCEPTIONS_H_

namespace tcs {

struct TxRestart {};

// Control-flow signal for the OrElse combinator: a Retry() raised inside an
// OrElse branch that still has an alternative throws this instead of
// descheduling. The enclosing OrElse frame catches it, rolls the branch's
// speculative writes back to its savepoint, and runs the alternative. It never
// escapes Atomically(): a Retry with no remaining alternative goes through the
// normal TmSystem::Retry() deschedule path instead.
struct TxRetrySignal {};

}  // namespace tcs

#endif  // TCS_TM_TX_EXCEPTIONS_H_
