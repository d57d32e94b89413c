// Shared pieces of the perfbench harness: the per-segment result every
// workload reports, process resource usage, CPU pinning, and the watchdog
// that fails a run whose operation is stuck.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/histogram.h"

// mo-edge: [harness] (minimal: release/acquire) — harness coordination: the
// watchdog's stop flag, published by the main thread and observed by the
// watchdog thread (additionally ordered by the join that follows).

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NowSec() { return static_cast<double>(NowNs()) * 1e-9; }

// num / den, or 0 when nothing was counted in den.
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

// Process-wide resource usage (all threads), from getrusage.
struct Usage {
  double cpu_s = 0.0;
  double nvcsw = 0.0;   // voluntary context switches (blocking, parking)
  double nivcsw = 0.0;  // involuntary context switches (preemption)

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                  1e-6;
    u.nvcsw = static_cast<double>(ru.ru_nvcsw);
    u.nivcsw = static_cast<double>(ru.ru_nivcsw);
    return u;
  }

  Usage operator-(const Usage& o) const {
    return {cpu_s - o.cpu_s, nvcsw - o.nvcsw, nivcsw - o.nivcsw};
  }
};

inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// What one measured segment reports. An operation is one Produce/Consume
// call on a buffer workload and one whole app run on an app workload.
struct SegmentResult {
  bool traced = false;
  double seconds = 0.0;
  double setup_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  Usage usage;        // resource use over the measured window
  Histogram latency;  // per-operation latency, ns
  std::vector<std::string> errors;
};

// A workload builds fresh state for every segment and accumulates its layer
// counters and spans across the segments it ran traced.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual SegmentResult RunSegment(std::uint64_t seed, double seconds,
                                   bool traced) = 0;
  // Layer metrics, by name, from what the workload accumulated over the
  // segments it ran traced. Metrics of layers it does not reach are left out.
  virtual void AddLayerMetrics(std::map<std::string, double>& out) const = 0;
};

// CPUs this process may run on, in ascending order.
inline std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

// Pins the calling thread to `cpu` (no-op for a negative cpu).
inline void PinThisThread(int cpu) {
  if (cpu < 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Fails the run when any operation has been in flight for longer than
// kStuckNs: the process prints why and exits with code 3, without a result.
// A thread cannot be cancelled out of a lost wakeup, so there is no cleaner
// way out. Each worker owns one slot and stamps it around every operation.
class Watchdog {
 public:
  static constexpr int kSlots = 8;
  static constexpr std::int64_t kStuckNs = 2'000'000'000;

  Watchdog() : thread_([this] { Main(); }) {}
  ~Watchdog() {
    // mo: release — [harness] stop request to the watchdog thread.
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Begin(int slot, std::int64_t now_ns) {
    // mo: relaxed — a monitoring stamp; a stale read only delays detection.
    start_ns_[slot].store(now_ns, std::memory_order_relaxed);
  }
  void End(int slot) {
    // mo: relaxed — as in Begin.
    start_ns_[slot].store(0, std::memory_order_relaxed);
  }

 private:
  void Main() {
    // mo: acquire — [harness] observe the stop request.
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const std::int64_t now = NowNs();
      for (int i = 0; i < kSlots; ++i) {
        // mo: relaxed — monitoring read, as in Begin.
        const std::int64_t t = start_ns_[i].load(std::memory_order_relaxed);
        if (t != 0 && now - t > kStuckNs) {
          std::fprintf(stderr,
                       "perfbench: operation in slot %d in flight for %.1f s "
                       "(limit 2 s): failing the run\n",
                       i, static_cast<double>(now - t) * 1e-9);
          std::fflush(stderr);
          _exit(3);
        }
      }
    }
  }

  std::array<std::atomic<std::int64_t>, kSlots> start_ns_{};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it reads exist
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
