// Bounded-buffer workloads: the paper's running example as a closed loop.
//
// One producer and two consumers share a BoundedBuffer for a fixed time. The
// producer sends seeded 63-bit values; at the end of the segment it stops and
// sends each consumer a poison value, so no operation is left waiting. Every
// value must arrive exactly once: the sum, xor and count of what was consumed
// must equal those of what was produced.
//
// Untraced segments call the library's own BoundedBuffer::Produce/Consume (or
// TryProduceFor/TryConsumeFor) and time each call. Traced segments drive the
// same transaction bodies through TracedAtomically below, a copy of the
// Atomically loop (src/core/transaction.h) with a span around every call into
// the core, tm and condsync layers.
#ifndef PERFBENCH_BUFFER_WORKLOAD_H_
#define PERFBENCH_BUFFER_WORKLOAD_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/span_stack.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/sync/bounded_buffer.h"

// mo-edge: [harness] (minimal: release/acquire) — harness coordination: the
// start and stop flags, published by the main thread and observed by the
// worker threads (additionally ordered by the joins that end a segment).

namespace perfbench {

struct BufferSpec {
  // kRetry or kRestart (blocking Produce/Consume), or kAwait (timed
  // TryProduceFor/TryConsumeFor, so AwaitFor).
  tcs::Mechanism mech;
  tcs::Backend backend;
  std::uint64_t capacity;
};

class BufferWorkload : public Workload {
 public:
  static constexpr int kConsumers = 2;
  static constexpr int kWorkers = 1 + kConsumers;
  static constexpr auto kTimedWait = std::chrono::milliseconds(200);

  BufferWorkload(const BufferSpec& spec, Watchdog& watchdog)
      : spec_(spec), watchdog_(watchdog) {
    // The last kWorkers allowed CPUs, leaving the first ones to the main
    // thread and the runtime's helper threads; shared when there are fewer.
    const std::vector<int> allowed = AllowedCpus();
    const std::size_t n = allowed.size();
    const std::size_t first = n > kWorkers ? n - kWorkers : 0;
    for (std::size_t i = 0; i < kWorkers; ++i) {
      cpus_.push_back(n == 0 ? -1 : allowed[(first + i) % n]);
    }
  }

  SegmentResult RunSegment(std::uint64_t seed, double seconds,
                           bool traced) override {
    SegmentResult res;
    res.traced = traced;
    const double setup_start = NowSec();
    tcs::TmConfig cfg;
    cfg.backend = spec_.backend;
    cfg.max_threads = 16;
    tcs::Runtime rt(cfg);
    tcs::BoundedBuffer buf(&rt, spec_.mech, spec_.capacity);
    if (Timed()) {
      StartTicker(rt);
    }
    // Set-up is the library state built above. Starting the worker threads is
    // left out: it is a few wakeups of idle CPUs, whose latency on a shared
    // VM follows the host's load, not this program.
    res.setup_s = NowSec() - setup_start;
    Segment seg{rt, buf, seed, traced};
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::thread> threads;
    for (int i = 0; i < kWorkers; ++i) {
      workers.push_back(std::make_unique<Worker>());
      workers[i]->slot = i;
      workers[i]->cpu = cpus_[i];
    }
    threads.emplace_back([&] { Produce(*workers[0], seg); });
    for (int i = 1; i < kWorkers; ++i) {
      threads.emplace_back([&, i] { Consume(*workers[i], seg); });
    }
    seg.ready.wait();

    const Usage usage_start = Usage::Now();
    const double start = NowSec();
    // mo: release — [harness] start the workers.
    seg.go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    // mo: release — [harness] stop the producer.
    seg.stop.store(true, std::memory_order_release);
    for (std::thread& t : threads) {
      t.join();
    }
    res.seconds = NowSec() - start;
    res.usage = Usage::Now() - usage_start;

    // Worker 0 is the producer; the consumers together must have received
    // exactly what it sent.
    const Worker& sent = *workers[0];
    std::uint64_t got = 0, got_sum = 0, got_xor = 0;
    for (int i = 0; i < kWorkers; ++i) {
      const Worker& w = *workers[i];
      res.attempted += w.attempted;
      res.completed += w.completed;
      res.failed += w.attempted - w.completed;
      res.latency.Merge(w.latency);
      if (i > 0) {
        got += w.completed;
        got_sum += w.sum;
        got_xor ^= w.xor_;
      }
    }
    if (res.failed > 0) {
      res.errors.push_back(std::to_string(res.failed) +
                           " timed wait(s) expired");
    }
    if (sent.completed != got || sent.sum != got_sum || sent.xor_ != got_xor) {
      res.failed += std::max<std::uint64_t>(
          1, sent.completed > got ? sent.completed - got
                                  : got - sent.completed);
      res.errors.push_back("conservation: produced " +
                           std::to_string(sent.completed) +
                           " values, consumed " + std::to_string(got) +
                           ", or their sum or xor differs");
    }
    if (traced) {
      traced_ops_ += res.completed;
      traced_seconds_ += res.seconds;
      for (const auto& w : workers) {
        spans_.Merge(w->spans.totals());
      }
      AddObs(rt.sys().SnapshotObs());
    }
    return res;
  }

  void AddLayerMetrics(std::map<std::string, double>& out) const override {
    const double ops = static_cast<double>(traced_ops_);
    auto count = [&](tcs::Counter c) {
      return static_cast<double>(stats_.Get(c));
    };
    auto cause = [&](tcs::AbortCause c) {
      return static_cast<double>(causes_[static_cast<int>(c)]);
    };
    const SpanTotals& s = spans_;
    const Histogram& produce = s.duration[kSyncProduce];
    const Histogram& consume = s.duration[kSyncConsume];
    Histogram op = produce;
    op.Merge(consume);

    out["core.attempts_per_op"] =
        Ratio(static_cast<double>(s.duration[kCoreAttempt].Count()), ops);
    out["core.attempt_self_ns_p50"] = s.self[kCoreAttempt].Percentile(50);

    out["tm.begin_ns_p50"] = s.duration[kTmBegin].Percentile(50);
    out["tm.commit_ns_p50"] = s.duration[kTmCommit].Percentile(50);
    out["tm.commit_ns_p99"] = s.duration[kTmCommit].Percentile(99);
    out["tm.abort_ratio"] = Ratio(
        count(tcs::Counter::kAborts),
        count(tcs::Counter::kAborts) + count(tcs::Counter::kCommits) +
            count(tcs::Counter::kReadOnlyCommits));
    out["tm.aborts.lock_collision_per_op"] =
        Ratio(cause(tcs::AbortCause::kLockCollision), ops);
    out["tm.aborts.encounter_acquisition_per_op"] =
        Ratio(cause(tcs::AbortCause::kEncounterAcquisition), ops);
    out["tm.aborts.commit_validation_per_op"] =
        Ratio(cause(tcs::AbortCause::kCommitValidation), ops);
    out["tm.aborts.read_validation_per_op"] =
        Ratio(cause(tcs::AbortCause::kReadValidation), ops);
    out["tm.commit_latency_p50_ns"] = ObsPercentile(commit_latency_, 50);

    const double deschedules = count(tcs::Counter::kDeschedules);
    const double wakeups = count(tcs::Counter::kWakeups);
    const double batches = count(tcs::Counter::kWakeBatches);
    out["condsync.wait_ns_p50"] = s.duration[kCondsyncWait].Percentile(50);
    out["condsync.wait_ns_p99"] = s.duration[kCondsyncWait].Percentile(99);
    out["condsync.retry_logging_ns_p50"] =
        s.logging_attempt_self.Percentile(50);
    out["condsync.retry_restarts_per_op"] =
        Ratio(count(tcs::Counter::kRetryRestarts), ops);
    out["condsync.deschedules_per_op"] = Ratio(deschedules, ops);
    out["condsync.sleep_ratio"] =
        Ratio(count(tcs::Counter::kSleeps), deschedules);
    out["condsync.false_wakeup_ratio"] =
        Ratio(count(tcs::Counter::kFalseWakeups), wakeups);
    out["condsync.vacuous_wakeup_ratio"] =
        Ratio(count(tcs::Counter::kVacuousWakeups), wakeups);
    // Every completed operation ends in exactly one user writer commit.
    out["condsync.wake_checks_per_writer_commit"] =
        Ratio(count(tcs::Counter::kWakeChecks), ops);
    out["condsync.wake_batches_per_writer_commit"] = Ratio(batches, ops);
    out["condsync.cas_claim_ratio"] =
        Ratio(count(tcs::Counter::kCasWakeClaims), wakeups);
    out["condsync.wake_tx_abort_ratio"] =
        Ratio(count(tcs::Counter::kWakeTxAborts),
              count(tcs::Counter::kWakeTxAborts) + batches);
    out["condsync.waitset_entries_per_deschedule"] =
        Ratio(count(tcs::Counter::kWaitsetEntries), deschedules);
    out["condsync.timeouts_per_op"] =
        Ratio(count(tcs::Counter::kWaitTimeouts), ops);
    out["condsync.wait_duration_p50_us"] =
        ObsPercentile(wait_duration_, 50) / 1e3;
    out["condsync.wait_duration_p99_us"] =
        ObsPercentile(wait_duration_, 99) / 1e3;

    out["common.parking.wake_latency_p50_us"] =
        ObsPercentile(wake_latency_, 50) / 1e3;
    out["common.parking.wake_latency_p99_us"] =
        ObsPercentile(wake_latency_, 99) / 1e3;

    out["common.timer_wheel.scheduled_per_op"] =
        Ratio(static_cast<double>(wheel_scheduled_), ops);
    out["common.timer_wheel.ticks_per_s"] =
        Ratio(static_cast<double>(wheel_ticks_), traced_seconds_);
    out["common.timer_wheel.max_lag_us"] =
        static_cast<double>(wheel_max_lag_ns_) / 1e3;

    out["sync.produce_p50_us"] = produce.Percentile(50) / 1e3;
    out["sync.produce_p99_us"] = produce.Percentile(99) / 1e3;
    out["sync.consume_p50_us"] = consume.Percentile(50) / 1e3;
    out["sync.consume_p99_us"] = consume.Percentile(99) / 1e3;
    out["sync.op_p999_us"] = op.Percentile(99.9) / 1e3;
  }

 private:
  static constexpr std::uint64_t kPoison = ~std::uint64_t{0};

  struct Segment {
    Segment(tcs::Runtime& r, tcs::BoundedBuffer& b, std::uint64_t s, bool t)
        : rt(r), buf(b), seed(s), traced(t) {}
    tcs::Runtime& rt;
    tcs::BoundedBuffer& buf;
    const std::uint64_t seed;
    const bool traced;
    std::latch ready{kWorkers};
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
  };

  struct Worker {
    int slot = 0;
    int cpu = -1;
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t sum = 0;
    std::uint64_t xor_ = 0;
    Histogram latency;
    SpanStack spans;

    void Record(std::int64_t ns, std::optional<std::uint64_t> value) {
      ++attempted;
      if (value) {
        ++completed;
        sum += *value;
        xor_ ^= *value;
        latency.Record(static_cast<std::uint64_t>(ns));
      }
    }
  };

  bool Timed() const { return spec_.mech == tcs::Mechanism::kAwait; }

  static std::uint64_t Value(std::uint64_t seed, std::uint64_t i) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (i + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return (z ^ (z >> 31)) >> 1;  // 63 bits: never kPoison
  }

  // The timer wheel starts its ticker thread on first use, and a thread
  // inherits its creator's CPU pinning. One timed wait here, on the unpinned
  // main thread, keeps the ticker off the workers' CPUs, as it would be in an
  // unpinned program. Its counters are reset; the wheel's own stats keep it.
  static void StartTicker(tcs::Runtime& rt) {
    tcs::TVar<std::uint64_t> never{0};
    tcs::Atomically(rt.sys(), [&](tcs::Tx& tx) {
      (void)tx.AwaitFor(std::chrono::microseconds(1), never);
    });
    rt.ResetStats();
  }

  void WaitForStart(Worker& w, Segment& seg) {
    PinThisThread(w.cpu);
    seg.ready.count_down();
    // mo: acquire — [harness] observe the start flag.
    while (!seg.go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  void Produce(Worker& w, Segment& seg) {
    WaitForStart(w, seg);
    // mo: acquire — [harness] observe the stop flag.
    for (std::uint64_t i = 0; !seg.stop.load(std::memory_order_acquire); ++i) {
      const std::uint64_t v = Value(seg.seed, i);
      const std::int64_t t0 = NowNs();
      watchdog_.Begin(w.slot, t0);
      bool ok = true;
      if (seg.traced) {
        ok = TracedProduce(w.spans, seg, v);
      } else if (Timed()) {
        ok = seg.buf.TryProduceFor(v, kTimedWait);
      } else {
        seg.buf.Produce(v);
      }
      const std::int64_t t1 = NowNs();
      watchdog_.End(w.slot);
      w.Record(t1 - t0, ok ? std::optional<std::uint64_t>(v) : std::nullopt);
    }
    for (int c = 0; c < kConsumers; ++c) {
      seg.buf.Produce(kPoison);
    }
  }

  void Consume(Worker& w, Segment& seg) {
    WaitForStart(w, seg);
    for (;;) {
      const std::int64_t t0 = NowNs();
      watchdog_.Begin(w.slot, t0);
      std::optional<std::uint64_t> v;
      if (seg.traced) {
        v = TracedConsume(w.spans, seg);
      } else if (Timed()) {
        v = seg.buf.TryConsumeFor(kTimedWait);
      } else {
        v = seg.buf.Consume();
      }
      const std::int64_t t1 = NowNs();
      watchdog_.End(w.slot);
      if (v == kPoison) {
        return;
      }
      w.Record(t1 - t0, v);
    }
  }

  // The Atomically loop of src/core/transaction.h, with spans.
  template <typename Body>
  static auto TracedAtomically(tcs::TmSystem& sys, SpanStack& spans,
                               Body&& body) {
    tcs::Tx tx(sys);
    for (;;) {
      const int attempt = spans.Push(kCoreAttempt);
      const int begin = spans.Push(kTmBegin);
      sys.Begin();
      spans.PopTo(begin);
      if (sys.Desc().retry_logging) {
        spans.MarkLogging(attempt);
      }
      try {
        auto result = body(tx);
        spans.Push(kTmCommit);
        sys.Commit();
        spans.PopTo(attempt);
        return result;
      } catch (const tcs::TxRestart&) {
        spans.PopTo(attempt);
        sys.OnRestart();
      }
    }
  }

  // The wait the mechanism's BoundedBuffer front end makes when the buffer
  // is full or empty (src/sync/bounded_buffer.cc). Returns only when a timed
  // wait expired; a satisfied wait restarts the body instead.
  bool TracedWait(tcs::Tx& tx, Segment& seg, SpanStack& spans) const {
    const int wait = spans.Push(kCondsyncWait);
    switch (spec_.mech) {
      case tcs::Mechanism::kRetry:
        tx.Retry();
      case tcs::Mechanism::kRestart:
        tx.RestartNow();
      default:
        break;
    }
    tx.AwaitFor(kTimedWait, seg.buf.count_ref());
    spans.PopTo(wait);
    return true;
  }

  bool TracedProduce(SpanStack& spans, Segment& seg, std::uint64_t v) const {
    const int op = spans.Push(kSyncProduce);
    const bool ok = TracedAtomically(seg.rt.sys(), spans, [&](tcs::Tx& tx) {
      if (seg.buf.Full(tx) && TracedWait(tx, seg, spans)) {
        return false;
      }
      seg.buf.Put(tx, v);
      return true;
    });
    spans.PopTo(op);
    return ok;
  }

  std::optional<std::uint64_t> TracedConsume(SpanStack& spans,
                                             Segment& seg) const {
    const int op = spans.Push(kSyncConsume);
    const auto v = TracedAtomically(
        seg.rt.sys(), spans, [&](tcs::Tx& tx) -> std::optional<std::uint64_t> {
          if (seg.buf.Empty(tx) && TracedWait(tx, seg, spans)) {
            return std::nullopt;
          }
          return seg.buf.Get(tx);
        });
    spans.PopTo(op);
    return v;
  }

  void AddObs(const tcs::TmSystem::ObsSnapshot& snap) {
    stats_.MergeFrom(snap.stats);
    for (int i = 0; i < tcs::kNumAbortCauses; ++i) {
      causes_[i] += snap.abort_causes[i];
    }
    commit_latency_.MergeFrom(snap.commit_latency);
    wait_duration_.MergeFrom(snap.wait_duration);
    wake_latency_.MergeFrom(snap.wake_latency);
    wheel_ticks_ += snap.wheel.ticks;
    wheel_scheduled_ += snap.wheel.scheduled;
    wheel_max_lag_ns_ = std::max(wheel_max_lag_ns_, snap.wheel.max_lag_ns);
  }

  const BufferSpec spec_;
  Watchdog& watchdog_;
  std::vector<int> cpus_;

  // Accumulated over the traced segments.
  std::uint64_t traced_ops_ = 0;
  double traced_seconds_ = 0.0;
  SpanTotals spans_;
  tcs::TxStats stats_;
  std::array<std::uint64_t, tcs::kNumAbortCauses> causes_{};
  tcs::LatencyHistogram commit_latency_;
  tcs::LatencyHistogram wait_duration_;
  tcs::LatencyHistogram wake_latency_;
  std::uint64_t wheel_ticks_ = 0;
  std::uint64_t wheel_scheduled_ = 0;
  std::uint64_t wheel_max_lag_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BUFFER_WORKLOAD_H_
