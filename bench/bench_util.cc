#include "bench/bench_util.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tcs {

namespace {

[[noreturn]] void FlagError(const char* what, const std::string& arg) {
  std::fprintf(stderr, "%s: %s\n", what, arg.c_str());
  std::exit(2);
}

}  // namespace

BenchFlags::BenchFlags(int argc, char** argv,
                       std::initializer_list<const char*> keys) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      FlagError("unknown argument (expected --key=value)", arg);
    }
    const std::size_t eq = arg.find('=');
    std::string key = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    bool known = false;
    for (const char* k : keys) {
      known = known || key == k;
    }
    if (!known) {
      std::string usage = arg + " (this binary reads:";
      for (const char* k : keys) {
        usage += std::string(" --") + k;
      }
      FlagError("unknown flag", usage + ")");
    }
    kv_.emplace_back(std::move(key),
                     eq == std::string::npos ? "1" : arg.substr(eq + 1));
  }
}

const std::string* BenchFlags::Find(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::uint64_t BenchFlags::GetU64(const std::string& key,
                                 std::uint64_t def) const {
  const std::string* v = Find(key);
  if (v == nullptr) {
    return def;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v->c_str(), &end, 10);
  if (v->empty() || !std::isdigit(static_cast<unsigned char>((*v)[0])) ||
      *end != '\0' || errno == ERANGE) {
    FlagError("malformed number", "--" + key + "=" + *v);
  }
  return n;
}

bool BenchFlags::GetBool(const std::string& key, bool def) const {
  const std::string* v = Find(key);
  if (v == nullptr) {
    return def;
  }
  if (*v == "1" || *v == "true") {
    return true;
  }
  if (*v == "0" || *v == "false") {
    return false;
  }
  FlagError("malformed boolean (expected 0, 1, false or true)",
            "--" + key + "=" + *v);
}

std::string BenchFlags::GetString(const std::string& key,
                                  const std::string& def) const {
  const std::string* v = Find(key);
  return v == nullptr ? def : *v;
}

std::vector<int> BenchFlags::GetIntList(const std::string& key,
                                        std::vector<int> def) const {
  const std::string* v = Find(key);
  if (v == nullptr) {
    return def;
  }
  std::vector<int> out;
  const char* p = v->c_str();
  do {
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(p, &end, 10);
    if (end == p || n <= 0 || n > INT_MAX || errno == ERANGE ||
        (*end != ',' && *end != '\0')) {
      FlagError("malformed list of positive integers", "--" + key + "=" + *v);
    }
    out.push_back(static_cast<int>(n));
    p = *end == ',' ? end + 1 : end;
  } while (*p != '\0');
  return out;
}

TrialStats Summarize(const std::vector<double>& samples) {
  TrialStats s;
  if (samples.empty()) {
    return s;
  }
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
  }
  s.mean = sum / static_cast<double>(samples.size());
  double var = 0.0;
  for (double v : samples) {
    var += (v - s.mean) * (v - s.mean);
  }
  s.stddev = samples.size() > 1
                 ? std::sqrt(var / static_cast<double>(samples.size() - 1))
                 : 0.0;
  return s;
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PrintHeader(const std::string& figure, const std::string& description) {
  std::printf("# %s\n# %s\n", figure.c_str(), description.c_str());
}

}  // namespace tcs
