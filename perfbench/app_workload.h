// Mini-PARSEC workloads: one app run is one operation.
//
// Each segment first runs the app under Pthreads for the reference checksum
// (its set-up), then runs it under the workload's mechanism and backend back
// to back until the segment's time is up. A run whose checksum differs from
// the reference has failed. Apps build their own Runtime and threads inside
// each run, so the harness reaches no layer below miniparsec; a traced
// segment records one miniparsec.run span and the getrusage deltas per run.
#ifndef PERFBENCH_APP_WORKLOAD_H_
#define PERFBENCH_APP_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/histogram.h"
#include "src/miniparsec/app_common.h"

namespace perfbench {

struct AppSpec {
  const char* app;
  tcs::Mechanism mech;
  tcs::Backend backend;
  int threads;
  int scale;
};

class AppWorkload : public Workload {
 public:
  AppWorkload(const AppSpec& spec, Watchdog& watchdog)
      : spec_(spec), watchdog_(watchdog) {}

  SegmentResult RunSegment(std::uint64_t seed, double seconds,
                           bool traced) override {
    SegmentResult res;
    res.traced = traced;
    tcs::AppConfig cfg;
    cfg.mech = spec_.mech;
    cfg.backend = spec_.backend;
    cfg.threads = spec_.threads;
    cfg.scale = spec_.scale;
    cfg.seed = seed;
    tcs::AppConfig reference_cfg = cfg;
    reference_cfg.mech = tcs::Mechanism::kPthreads;

    const double setup_start = NowSec();
    const std::uint64_t reference =
        tcs::RunMiniParsecApp(spec_.app, reference_cfg).checksum;
    res.setup_s = NowSec() - setup_start;

    const Usage usage_start = Usage::Now();
    const double start = NowSec();
    while (NowSec() - start < seconds) {
      const Usage run_usage = traced ? Usage::Now() : Usage{};
      const std::int64_t t0 = NowNs();
      watchdog_.Begin(0, t0);
      const tcs::AppResult r = tcs::RunMiniParsecApp(spec_.app, cfg);
      const std::int64_t t1 = NowNs();
      watchdog_.End(0);
      ++res.attempted;
      if (r.checksum != reference) {
        ++res.failed;
        continue;
      }
      ++res.completed;
      res.latency.Record(static_cast<std::uint64_t>(t1 - t0));
      if (traced) {
        const double wall_s = static_cast<double>(t1 - t0) * 1e-9;
        traced_wall_s_ += wall_s;
        traced_cpu_s_ += (Usage::Now() - run_usage).cpu_s;
        inner_setup_ms_.push_back((wall_s - r.seconds) * 1e3);
      }
    }
    res.seconds = NowSec() - start;
    res.usage = Usage::Now() - usage_start;
    if (res.failed > 0) {
      res.errors.push_back(std::to_string(res.failed) + " " + spec_.app +
                           " run(s) differ from the Pthreads checksum");
    }
    return res;
  }

  void AddLayerMetrics(std::map<std::string, double>& out) const override {
    out["miniparsec.inner_setup_ms"] = Median(inner_setup_ms_);
    out["miniparsec.cpu_util"] = Ratio(traced_cpu_s_, traced_wall_s_);
  }

 private:
  const AppSpec spec_;
  Watchdog& watchdog_;

  // Accumulated over the traced segments.
  double traced_wall_s_ = 0.0;
  double traced_cpu_s_ = 0.0;
  std::vector<double> inner_setup_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_APP_WORKLOAD_H_
