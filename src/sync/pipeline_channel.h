// Pipeline stage channel: a bounded queue of tokens flowing between pipeline
// stages, plus an end-of-stream protocol for multi-producer stages.
//
// This is the synchronization skeleton of PARSEC's pipeline benchmarks (dedup,
// ferret, x264's frame pipeline): stage k's workers pop from channel k, compute,
// and push to channel k+1; the last producer of a stage closes the downstream
// channel.
#ifndef TCS_SYNC_PIPELINE_CHANNEL_H_
#define TCS_SYNC_PIPELINE_CHANNEL_H_

#include <cstdint>
#include <mutex>
#include <optional>

#include "src/core/tvar.h"
#include "src/sync/work_queue.h"

namespace tcs {

class PipelineChannel {
 public:
  // `producers` is the number of upstream workers that must call ProducerDone()
  // before the channel closes.
  PipelineChannel(Runtime* rt, Mechanism mech, std::uint64_t capacity, int producers);

  PipelineChannel(const PipelineChannel&) = delete;
  PipelineChannel& operator=(const PipelineChannel&) = delete;

  void Push(std::uint64_t token) { queue_.Push(token); }
  std::optional<std::uint64_t> Pop() { return queue_.Pop(); }

  // Called once per upstream worker; the last call closes the channel.
  void ProducerDone();

 private:
  WorkQueue queue_;
  Runtime* rt_;
  const Mechanism mech_;
  // End-of-stream count. Transactional under the TM mechanisms; under the
  // pthreads reference (no Runtime) it is read/written under mu_, like
  // WorkQueue's pthreads path. Either way the sync/ adapters carry no raw
  // atomics (the memory-order reasoning lives in the TM and condsync layers;
  // tools/tm_analyze.py enforces the boundary).
  std::mutex mu_;
  TVar<std::uint64_t> producers_left_;
};

}  // namespace tcs

#endif  // TCS_SYNC_PIPELINE_CHANNEL_H_
