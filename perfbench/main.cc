// perfbench: runs one workload for a fixed time and prints one JSON line.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// A run warms up for 2 s (discarded), then measures kSegments segments of
// S / kSegments seconds each. Every segment builds its state afresh (runtime,
// structures, threads); rates are taken over the sum of the segments and
// latency percentiles over all samples. --seed sets the produced values and
// AppConfig::seed. With --trace 0 the line carries the end-to-end metrics;
// with --trace 1 every other segment is traced and the line carries the
// per-layer metrics. Flags may be written `--key value` or `--key=value`; an
// unknown flag or workload exits with code 2. The last line of standard
// output is
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {NAME:
//    {"value": V, "unit": U}, ...}}
//
// and the exit code is 0 iff every check passed (1 otherwise; 3 when the
// watchdog finds an operation stuck for more than 2 s).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/app_workload.h"
#include "perfbench/buffer_workload.h"
#include "perfbench/harness.h"
#include "perfbench/histogram.h"

namespace perfbench {
namespace {

constexpr int kSegments = 10;
constexpr double kWarmupSeconds = 2.0;

using tcs::Backend;
using tcs::Mechanism;

struct WorkloadDef {
  const char* name;
  std::unique_ptr<Workload> (*make)(Watchdog&);
};

template <typename W, typename Spec>
std::unique_ptr<Workload> Make(const Spec& spec, Watchdog& watchdog) {
  return std::make_unique<W>(spec, watchdog);
}

// The app scales make one run take about 35 ms (streamcluster) and 55 ms
// (dedup) on a 4-core x86 box, so a 2-s segment holds dozens of runs.
const WorkloadDef kWorkloads[] = {
    {"handoff_retry",
     [](Watchdog& w) {
       return Make<BufferWorkload>(
           BufferSpec{Mechanism::kRetry, Backend::kEagerStm, 4}, w);
     }},
    {"handoff_timed_await",
     [](Watchdog& w) {
       return Make<BufferWorkload>(
           BufferSpec{Mechanism::kAwait, Backend::kLazyStm, 4}, w);
     }},
    {"steady_restart",
     [](Watchdog& w) {
       return Make<BufferWorkload>(
           BufferSpec{Mechanism::kRestart, Backend::kEagerStm, 128}, w);
     }},
    {"barrier_waitpred_htm",
     [](Watchdog& w) {
       return Make<AppWorkload>(AppSpec{"streamcluster", Mechanism::kWaitPred,
                                        Backend::kSimHtm, 3, 27},
                                w);
     }},
    {"pipeline_retry_lazy",
     [](Watchdog& w) {
       return Make<AppWorkload>(
           AppSpec{"dedup", Mechanism::kRetry, Backend::kLazyStm, 2, 23}, w);
     }},
};

// A fresh instance of the named workload, or null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       Watchdog& watchdog) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) {
      return def.make(watchdog);
    }
  }
  return nullptr;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order BENCHMARK.json lists them.
const MetricDef kLayerMetrics[] = {
    {"core.attempts_per_op", "1/op"},
    {"core.attempt_self_ns_p50", "ns"},
    {"tm.begin_ns_p50", "ns"},
    {"tm.commit_ns_p50", "ns"},
    {"tm.commit_ns_p99", "ns"},
    {"tm.abort_ratio", "ratio"},
    {"tm.aborts.lock_collision_per_op", "1/op"},
    {"tm.aborts.encounter_acquisition_per_op", "1/op"},
    {"tm.aborts.commit_validation_per_op", "1/op"},
    {"tm.aborts.read_validation_per_op", "1/op"},
    {"tm.commit_latency_p50_ns", "ns"},
    {"condsync.wait_ns_p50", "ns"},
    {"condsync.wait_ns_p99", "ns"},
    {"condsync.retry_logging_ns_p50", "ns"},
    {"condsync.retry_restarts_per_op", "1/op"},
    {"condsync.deschedules_per_op", "1/op"},
    {"condsync.sleep_ratio", "ratio"},
    {"condsync.false_wakeup_ratio", "ratio"},
    {"condsync.vacuous_wakeup_ratio", "ratio"},
    {"condsync.wake_checks_per_writer_commit", "1/commit"},
    {"condsync.wake_batches_per_writer_commit", "1/commit"},
    {"condsync.cas_claim_ratio", "ratio"},
    {"condsync.wake_tx_abort_ratio", "ratio"},
    {"condsync.waitset_entries_per_deschedule", "count"},
    {"condsync.timeouts_per_op", "1/op"},
    {"condsync.wait_duration_p50_us", "us"},
    {"condsync.wait_duration_p99_us", "us"},
    {"common.parking.wake_latency_p50_us", "us"},
    {"common.parking.wake_latency_p99_us", "us"},
    {"common.parking.voluntary_ctxsw_per_op", "1/op"},
    {"common.timer_wheel.scheduled_per_op", "1/op"},
    {"common.timer_wheel.ticks_per_s", "1/s"},
    {"common.timer_wheel.max_lag_us", "us"},
    {"sync.produce_p50_us", "us"},
    {"sync.produce_p99_us", "us"},
    {"sync.consume_p50_us", "us"},
    {"sync.consume_p99_us", "us"},
    {"sync.op_p999_us", "us"},
    {"miniparsec.inner_setup_ms", "ms"},
    {"miniparsec.cpu_util", "ratio"},
    {"bench.op_p50_us", "us"},
    {"bench.op_p95_us", "us"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.involuntary_ctxsw_per_s", "1/s"},
    {"bench.segment_spread_pct", "%"},
};

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\nworkloads:");
  for (const WorkloadDef& def : kWorkloads) {
    std::fprintf(stderr, " %s", def.name);
  }
  std::fprintf(stderr, "\n");
}

bool ParseU64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

bool ParseFlags(int argc, char** argv, Flags& f) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "perfbench: unexpected argument '%s'\n", argv[i]);
      return false;
    }
    std::string key = arg.substr(2);
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: --%s needs a value\n", key.c_str());
      return false;
    }
    std::uint64_t n = 0;
    if (key == "workload") {
      f.workload = value;
    } else if (key == "seed" && ParseU64(value, n)) {
      f.seed = n;
    } else if (key == "seconds" && ParseU64(value, n) && n >= 1 && n <= 600) {
      f.seconds = static_cast<double>(n);
    } else if (key == "trace" && (value == "0" || value == "1")) {
      f.trace = value == "1";
    } else {
      std::fprintf(stderr, "perfbench: bad flag --%s=%s\n", key.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (f.workload.empty()) {
    std::fprintf(stderr, "perfbench: --workload is required\n");
    return false;
  }
  return true;
}

std::uint64_t SegmentSeed(std::uint64_t seed, std::uint64_t segment) {
  std::uint64_t z = seed ^ (0xD1B54A32D192ED03ULL * (segment + 1));
  z = (z ^ (z >> 32)) * 0xBF58476D1CE4E5B9ULL;
  return z ^ (z >> 29);
}

// Sums over the traced or the untraced segments of a run. Rates are taken
// over the sums (time-weighted means): on repeated runs they spread less
// than the median of the per-segment rates.
struct Totals {
  double seconds = 0.0;
  double completed = 0.0;
  Usage usage;
  Histogram latency;
  std::vector<double> rates;  // per-segment completed operations per second

  Totals(const std::vector<SegmentResult>& segs, bool traced) {
    for (const SegmentResult& s : segs) {
      if (s.traced != traced) {
        continue;
      }
      seconds += s.seconds;
      completed += static_cast<double>(s.completed);
      usage.cpu_s += s.usage.cpu_s;
      usage.nvcsw += s.usage.nvcsw;
      usage.nivcsw += s.usage.nivcsw;
      latency.Merge(s.latency);
      rates.push_back(Ratio(static_cast<double>(s.completed), s.seconds));
    }
  }
  double Rate() const { return Ratio(completed, seconds); }
};

std::map<std::string, double> EndToEndMetrics(
    const std::vector<SegmentResult>& segs) {
  const Totals t(segs, /*traced=*/false);
  std::vector<double> setup_s;
  for (const SegmentResult& s : segs) {
    setup_s.push_back(s.setup_s);
  }
  return {
      {"ops_per_s", t.Rate()},
      {"cpu_us_per_op", Ratio(t.usage.cpu_s * 1e6, t.completed)},
      {"setup_s", Median(setup_s)},
      {"peak_rss_mb", PeakRssMb()},
  };
}

std::map<std::string, double> LayerMetrics(
    const Workload& w, const std::vector<SegmentResult>& segs) {
  std::map<std::string, double> out;
  w.AddLayerMetrics(out);
  const Totals plain(segs, /*traced=*/false);
  const Totals traced(segs, /*traced=*/true);
  const auto [lo, hi] = std::minmax_element(plain.rates.begin(),
                                            plain.rates.end());
  out["common.parking.voluntary_ctxsw_per_op"] =
      Ratio(traced.usage.nvcsw, traced.completed);
  out["bench.op_p50_us"] = plain.latency.Percentile(50) / 1e3;
  out["bench.op_p95_us"] = plain.latency.Percentile(95) / 1e3;
  out["bench.trace_overhead_pct"] =
      traced.Rate() > 0 ? (plain.Rate() / traced.Rate() - 1.0) * 100.0 : 0.0;
  out["bench.involuntary_ctxsw_per_s"] =
      Ratio(plain.usage.nivcsw + traced.usage.nivcsw,
            plain.seconds + traced.seconds);
  out["bench.segment_spread_pct"] =
      plain.rates.empty() ? 0.0 : Ratio(*hi - *lo, plain.Rate()) * 100.0;
  return out;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<MetricDef>& defs,
                 const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      v = 0.0;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Run(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, flags)) {
    PrintUsage();
    return 2;
  }
  Watchdog watchdog;
  std::unique_ptr<Workload> warmup = MakeWorkload(flags.workload, watchdog);
  if (warmup == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 flags.workload.c_str());
    PrintUsage();
    return 2;
  }
  std::vector<SegmentResult> segs;
  segs.push_back(warmup->RunSegment(SegmentSeed(flags.seed, kSegments),
                                    kWarmupSeconds, false));
  std::unique_ptr<Workload> w = MakeWorkload(flags.workload, watchdog);
  const double segment_seconds = flags.seconds / kSegments;
  for (int i = 0; i < kSegments; ++i) {
    segs.push_back(w->RunSegment(SegmentSeed(flags.seed, i), segment_seconds,
                                 flags.trace && i % 2 == 1));
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const SegmentResult& s : segs) {
    attempted += s.attempted;
    failed += s.failed;
    for (const std::string& e : s.errors) {
      std::fprintf(stderr, "perfbench: %s: %s\n", flags.workload.c_str(),
                   e.c_str());
    }
  }
  const bool correct = failed == 0 && attempted > 0;
  // The warmup segment counts toward the checks but not toward any metric.
  segs.erase(segs.begin());

  if (flags.trace) {
    std::vector<MetricDef> defs(std::begin(kLayerMetrics),
                                std::end(kLayerMetrics));
    std::map<std::string, double> values = LayerMetrics(*w, segs);
    for (const auto& [name, v] : values) {
      bool known = false;
      for (const MetricDef& d : defs) {
        known = known || name == d.name;
      }
      if (!known) {
        std::fprintf(stderr, "perfbench: layer metric %s is not listed\n",
                     name.c_str());
        return 1;
      }
    }
    PrintResult(correct, attempted, failed, defs, values);
  } else {
    const std::vector<MetricDef> defs = {
        {"ops_per_s", "1/s"},
        {"cpu_us_per_op", "us"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    PrintResult(correct, attempted, failed, defs, EndToEndMetrics(segs));
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
