// Shared benchmark-harness utilities: flag parsing, timing statistics, and
// table headers.
#ifndef TCS_BENCH_BENCH_UTIL_H_
#define TCS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace tcs {

// Minimal --key=value flag parser, the only one the bench binaries use. Each
// binary names the keys it reads; an unknown key or a bare argument exits 2
// with usage text before any work runs, and so does a malformed value, as
// long as the binary reads every flag before it starts working.
class BenchFlags {
 public:
  BenchFlags(int argc, char** argv, std::initializer_list<const char*> keys);

  // Each returns the flag's value, or `def` when the flag is absent.
  std::uint64_t GetU64(const std::string& key, std::uint64_t def) const;
  bool GetBool(const std::string& key, bool def) const;
  std::string GetString(const std::string& key, const std::string& def) const;
  // A comma-separated list of positive integers, e.g. --waiters=256,1024.
  std::vector<int> GetIntList(const std::string& key,
                              std::vector<int> def) const;

 private:
  const std::string* Find(const std::string& key) const;

  std::vector<std::pair<std::string, std::string>> kv_;
};

struct TrialStats {
  double mean = 0.0;
  double stddev = 0.0;
};

TrialStats Summarize(const std::vector<double>& samples);

double NowSec();

// Prints a benchmark's two-line "# title / # description" header.
void PrintHeader(const std::string& figure, const std::string& description);

}  // namespace tcs

#endif  // TCS_BENCH_BENCH_UTIL_H_
