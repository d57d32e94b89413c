// Latency histograms and order statistics for the perfbench harness.
#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/obs/latency_histogram.h"

namespace perfbench {

// The p-th percentile (p in [0, 100]) of a bucketed distribution: walks the
// bucket counts to the bucket holding that rank and interpolates linearly
// inside it, so the result moves continuously with the data instead of
// snapping to bucket edges. 0 for an empty distribution.
template <typename CountFn, typename BoundsFn>
double BucketPercentile(int buckets, double p, CountFn count,
                        BoundsFn bounds) {
  double total = 0.0;
  for (int i = 0; i < buckets; ++i) {
    total += static_cast<double>(count(i));
  }
  const double rank = p / 100.0 * total;
  double cum = 0.0;
  for (int i = 0; i < buckets; ++i) {
    const double c = static_cast<double>(count(i));
    if (c > 0 && cum + c >= rank) {
      const auto [lo, hi] = bounds(i);
      return lo + std::clamp((rank - cum) / c, 0.0, 1.0) * (hi - lo);
    }
    cum += c;
  }
  return 0.0;
}

// Log-linear histogram of nanosecond samples: 32 linear sub-buckets per power
// of two, so a bucket is at most ~3% of its values wide. Single-writer;
// merged after the writer thread is joined.
class Histogram {
 public:
  void Record(std::uint64_t ns) { ++counts_[Index(ns)]; }

  void Merge(const Histogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }

  std::uint64_t Count() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : counts_) {
      n += c;
    }
    return n;
  }

  double Percentile(double p) const {
    return BucketPercentile(
        kBuckets, p, [&](int i) { return counts_[i]; },
        [](int i) {
          const double lo = static_cast<double>(Low(i));
          return std::pair{lo, lo + static_cast<double>(Width(i))};
        });
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  static int Index(std::uint64_t v) {
    if (v < kSub) {
      return static_cast<int>(v);
    }
    const int shift = std::bit_width(v) - 1 - kSubBits;
    return (shift + 1) * kSub + static_cast<int>((v >> shift) - kSub);
  }
  static std::uint64_t Low(int i) {
    if (i < kSub) {
      return static_cast<std::uint64_t>(i);
    }
    const int shift = i / kSub - 1;
    return static_cast<std::uint64_t>(kSub + i % kSub) << shift;
  }
  static std::uint64_t Width(int i) {
    return i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
};

// Percentile of the runtime's own log2-bucket histogram (src/obs/). The
// runtime's Percentile() returns bucket upper bounds, which read identically
// run after run; this interpolates like Histogram does.
inline double ObsPercentile(const tcs::LatencyHistogram& h, double p) {
  return BucketPercentile(
      tcs::LatencyHistogram::kBuckets, p,
      [&](int i) { return h.BucketCount(i); },
      [](int i) {
        return std::pair{
            i == 0 ? 0.0
                   : static_cast<double>(tcs::LatencyHistogram::BucketLow(i)),
            static_cast<double>(tcs::LatencyHistogram::BucketHigh(i))};
      });
}

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
