// Spans for the traced run: one per call the harness makes into a layer.
//
// Spans on one thread nest strictly (an attempt inside an op, a commit inside
// an attempt), so the open ones live on a small preallocated stack. A span's
// duration and self time (duration minus the time its children cover) are
// folded into per-thread histograms the moment it closes; the histograms are
// merged after the thread is joined. Folding keeps memory flat on runs of
// millions of operations, where keeping every span would take gigabytes.
#ifndef PERFBENCH_SPAN_STACK_H_
#define PERFBENCH_SPAN_STACK_H_

#include <array>
#include <cstdint>

#include "perfbench/harness.h"
#include "perfbench/histogram.h"

namespace perfbench {

enum SpanName : int {
  kSyncProduce = 0,  // sync.op around one Produce
  kSyncConsume,      // sync.op around one Consume
  kCoreAttempt,      // core.attempt: one execution of the transaction body
  kTmBegin,          // tm.begin: TmSystem::Begin
  kTmCommit,         // tm.commit: TmSystem::Commit, wake pass included
  kCondsyncWait,     // condsync.wait: the wait call until TxRestart is caught
  kNumSpanNames,
};

struct SpanTotals {
  std::array<Histogram, kNumSpanNames> duration;
  std::array<Histogram, kNumSpanNames> self;
  // Self time of attempts that ran with Retry's read logging on.
  Histogram logging_attempt_self;

  void Merge(const SpanTotals& o) {
    for (int i = 0; i < kNumSpanNames; ++i) {
      duration[i].Merge(o.duration[i]);
      self[i].Merge(o.self[i]);
    }
    logging_attempt_self.Merge(o.logging_attempt_self);
  }
};

class SpanStack {
 public:
  // Opens a span as a child of the innermost open one; returns its depth,
  // which PopTo takes.
  int Push(SpanName name) {
    Open& s = open_[depth_];
    s.name = name;
    s.logging = false;
    s.start_ns = NowNs();
    s.child_ns = 0;
    return depth_++;
  }

  void MarkLogging(int depth) { open_[depth].logging = true; }

  // Closes every open span down to and including the one at `depth`.
  void PopTo(int depth) {
    const std::int64_t end = NowNs();
    while (depth_ > depth) {
      const Open& s = open_[--depth_];
      const std::int64_t dur = end - s.start_ns;
      const std::int64_t self = dur - s.child_ns;
      totals_.duration[s.name].Record(static_cast<std::uint64_t>(dur));
      totals_.self[s.name].Record(static_cast<std::uint64_t>(self));
      if (s.logging) {
        totals_.logging_attempt_self.Record(static_cast<std::uint64_t>(self));
      }
      if (depth_ > 0) {
        open_[depth_ - 1].child_ns += dur;
      }
    }
  }

  const SpanTotals& totals() const { return totals_; }

 private:
  struct Open {
    SpanName name;
    bool logging;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  // Deepest nesting is op > attempt > wait or commit.
  std::array<Open, 8> open_{};
  int depth_ = 0;
  SpanTotals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_STACK_H_
