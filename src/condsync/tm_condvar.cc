#include "src/condsync/tm_condvar.h"

#include <cstdlib>

#include "src/common/assert.h"
#include "src/tm/tm_system.h"

namespace tcs {
namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

TmCondVar::TmCondVar(int capacity) {
  // RoundUpPow2 on a negative capacity would wrap through size_t and spin the
  // doubling loop to overflow; zero would build an unusable ring. Fail loudly.
  TCS_CHECK_MSG(capacity > 0, "TmCondVar capacity must be positive");
  cap_ = static_cast<TmWord>(RoundUpPow2(static_cast<std::size_t>(capacity)));
  // malloc, not new[]: growth frees the outgoing ring with TxFree (std::free),
  // so the initial ring must come from the same allocator.
  void* p = std::malloc(static_cast<std::size_t>(cap_) * sizeof(TmWord));
  TCS_CHECK_MSG(p != nullptr, "TmCondVar ring allocation failed");
  ring_ = reinterpret_cast<TmWord>(p);
}

TmCondVar::~TmCondVar() { std::free(reinterpret_cast<void*>(ring_)); }

void TmCondVar::Grow(TmSystem& sys, TmWord h, TmWord t, TmWord cap) {
  // Transactional doubling: allocate, copy the occupied range re-masked for
  // the new size, retarget pointer + capacity, and free the old buffer. All of
  // it commits or aborts with the enclosing transaction (TxAlloc is undone on
  // abort, TxFree deferred to commit), and the commit-time quiescence fence
  // keeps the freed ring alive until concurrent readers that could still hold
  // the old pointer are done.
  TmWord* old_ring = reinterpret_cast<TmWord*>(sys.Read(&ring_));
  TmWord new_cap = cap * 2;
  TmWord* new_ring = static_cast<TmWord*>(
      sys.TxAlloc(static_cast<std::size_t>(new_cap) * sizeof(TmWord)));
  for (TmWord i = h; i != t; ++i) {
    sys.Write(&new_ring[i & (new_cap - 1)],
              sys.Read(&old_ring[i & (cap - 1)]));
  }
  sys.Write(&ring_, reinterpret_cast<TmWord>(new_ring));
  sys.Write(&cap_, new_cap);
  sys.TxFree(old_ring);
}

void TmCondVar::Wait(TmSystem& sys) {
  TxDesc& d = sys.Desc();
  TCS_CHECK_MSG(d.nesting > 0, "TmCondVar::Wait outside transaction");
  d.stats.Bump(Counter::kCondVarWaits);
  // Enqueue as part of the in-flight transaction: the predicate the caller just
  // tested and this enqueue commit atomically, so a signal from any writer that
  // serializes later cannot be lost.
  TmWord h = sys.Read(&head_);
  TmWord t = sys.Read(&tail_);
  TmWord cap = sys.Read(&cap_);
  bool grew = false;
  if (t - h == cap) {
    // Full ring: enqueueing through the mask would overwrite the oldest
    // parked waiter's tid, losing its wakeup forever. Grow instead.
    Grow(sys, h, t, cap);
    cap = sys.Read(&cap_);
    grew = true;
  }
  TmWord* ring = reinterpret_cast<TmWord*>(sys.Read(&ring_));
  sys.Write(&ring[t & (cap - 1)], static_cast<TmWord>(d.tid));
  sys.Write(&tail_, t + 1);
  // The atomicity break: whatever the transaction did before this wait becomes
  // visible now.
  sys.CommitInFlight();
  if (grew) {
    // Counted after the commit so aborted attempts don't inflate it.
    d.stats.Bump(Counter::kCondVarRingGrowths);
  }
  sys.parking().ConsumeToken(d.park);
  d.skip_backoff = true;
  d.woke_from_sleep = true;
  throw TxRestart{};
}

void TmCondVar::Signal(TmSystem& sys) {
  TxDesc& d = sys.Desc();
  d.stats.Bump(Counter::kCondVarSignals);
  if (d.nesting > 0) {
    sys.DeferSignal({this, /*broadcast=*/false});
    return;
  }
  SignalNow(sys);
}

void TmCondVar::Broadcast(TmSystem& sys) {
  TxDesc& d = sys.Desc();
  d.stats.Bump(Counter::kCondVarSignals);
  if (d.nesting > 0) {
    sys.DeferSignal({this, /*broadcast=*/true});
    return;
  }
  BroadcastNow(sys);
}

std::size_t TmCondVar::PopBatch(TmSystem& sys, std::size_t max,
                                std::vector<int>& out) {
  const std::size_t base = out.size();
  sys.RunInternalTx([&] {
    // Re-execution starts clean: pops tentatively made by an aborted attempt
    // were rolled back, so the output must be rebuilt from `base`.
    out.resize(base);
    TmWord h = sys.Read(&head_);
    TmWord t = sys.Read(&tail_);
    if (h == t) {
      return;
    }
    TmWord cap = sys.Read(&cap_);
    TmWord* ring = reinterpret_cast<TmWord*>(sys.Read(&ring_));
    while (h != t && out.size() - base < max) {
      out.push_back(static_cast<int>(sys.Read(&ring[h & (cap - 1)])));
      ++h;
    }
    sys.Write(&head_, h);
  });
  const std::size_t popped = out.size() - base;
  if (popped > 0) {
    sys.Desc().stats.Bump(Counter::kCondVarBatches);
  }
  return popped;
}

void TmCondVar::SignalNow(TmSystem& sys) {
  std::vector<int> tids;
  if (PopBatch(sys, 1, tids) > 0) {
    sys.PostParked(tids[0]);
  }
}

void TmCondVar::BroadcastNow(TmSystem& sys) {
  // Pop a batch per internal transaction instead of one tid per transaction:
  // a broadcast over N waiters costs ceil(N/B) commits instead of N. Posts
  // are escape actions and stay strictly after the pop that claimed them
  // committed; the ring state never depends on the posts, so interleaving
  // batches with posts is safe.
  const auto batch = static_cast<std::size_t>(sys.config().wake_batch_size);
  std::vector<int> tids;
  for (;;) {
    tids.clear();
    if (PopBatch(sys, batch, tids) == 0) {
      return;
    }
    for (int tid : tids) {
      sys.PostParked(tid);
    }
  }
}

}  // namespace tcs
