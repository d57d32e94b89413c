#include "bench/parsec_grid.h"

#include <vector>

#include "src/common/assert.h"
#include "src/miniparsec/app_common.h"

namespace tcs {

ParsecGridOptions ApplyParsecFlags(ParsecGridOptions opts, const BenchFlags& flags) {
  if (flags.GetBool("paper", false)) {
    opts.scale = 8;
    opts.trials = 5;
    opts.max_threads = 8;
  }
  opts.scale = flags.GetU64("scale", opts.scale);
  opts.trials = flags.GetU64("trials", opts.trials);
  opts.max_threads = static_cast<int>(flags.GetU64("max_threads", opts.max_threads));
  return opts;
}

std::vector<ParsecGridRow> CollectParsecGrid(const ParsecGridOptions& opts) {
  std::vector<ParsecGridRow> rows;
  for (const AppInfo& app : MiniParsecApps()) {
    for (int threads : {1, 2, 4, 8}) {
      if (threads > opts.max_threads) {
        continue;
      }
      std::uint64_t reference = 0;
      bool have_reference = false;
      for (Mechanism m : kAllMechanisms) {
        if (m == Mechanism::kRetryOrig &&
            (!opts.include_retry_orig || opts.backend == Backend::kSimHtm)) {
          continue;
        }
        std::vector<double> samples;
        std::uint64_t checksum = 0;
        for (std::uint64_t t = 0; t < opts.trials; ++t) {
          AppConfig cfg;
          cfg.mech = m;
          cfg.backend = opts.backend;
          cfg.threads = threads;
          cfg.scale = static_cast<int>(opts.scale);
          AppResult r = app.run(cfg);
          samples.push_back(r.seconds);
          checksum = r.checksum;
        }
        if (!have_reference) {
          reference = checksum;
          have_reference = true;
        } else {
          TCS_CHECK_MSG(checksum == reference,
                        "mechanism changed an app checksum — synchronization bug");
        }
        TrialStats s = Summarize(samples);
        double throughput =
            s.mean > 0 ? static_cast<double>(opts.scale) / s.mean : 0.0;
        rows.push_back({app.name, threads, m, s.mean, s.stddev, throughput});
      }
    }
  }
  return rows;
}

}  // namespace tcs
