// Unified benchmark runner: sweeps the bounded-buffer grid, the mini-PARSEC
// apps, and the wake-index ablation over a thread × backend × mechanism
// matrix, and emits one machine-readable BENCH_wakeup.json so performance is
// comparable PR-to-PR (the CI bench-smoke job uploads it as an artifact).
// The bounded and parsec scenarios reproduce Figures 2.3-2.5 and 2.6-2.8,
// wakeup_precision §2.3's tradeoff, waitset_pruning §2.4.2's claim and
// table_2_1 Table 2.1.
//
// Flags (an unknown flag, malformed value or scenario exits 2 up front):
//   --quick              CI-sized run: eager backend only, small op counts
//   --paper              the figures' full grids: bounded buffer with up to 8
//                        producers and consumers, 2^20 ops and 5 trials;
//                        mini-PARSEC at scale 8 with 5 trials
//   --out=PATH           output file (default BENCH_wakeup.json)
//   --scenario=NAME      all | wake_index | waiter_scale | bounded | parsec |
//                        wakeup_precision | waitset_pruning | table_2_1
//                        (default all)
//   --ops=N --trials=N --max_side=N      bounded-buffer grid
//   --scale=N --trials=N --max_threads=N mini-PARSEC grid
//   --commits=N --many_commits=N         wake-index and waitset_pruning
//                                        scenarios
//   --scale_waiters=N    waiter_scale point size (default 1e5, --quick 1e4)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/bounded_grid.h"
#include "bench/condsync_ablations.h"
#include "bench/loc_table.h"
#include "bench/parsec_grid.h"
#include "src/common/json_writer.h"
#include "bench/waiter_scale.h"
#include "bench/wake_scenarios.h"

#ifndef TCS_SOURCE_DIR
#error "TCS_SOURCE_DIR must be defined by the build"
#endif

namespace tcs {
namespace {

void EmitWakeTrialRow(JsonWriter& w, const WakeTrialResult& r) {
  w.BeginObject();
  w.Key("backend").String(BackendName(r.backend));
  w.Key("mode").String(r.targeted ? "wake_index" : "global_scan");
  w.Key("waiters").Int(r.waiters);
  w.Key("num_shards").Int(r.num_shards);
  w.Key("waitset_shape").String(WaitsetShapeName(r.shape));
  w.Key("producer").String(r.silent_producer ? "silent" : "hot");
  w.Key("producer_commits").U64(r.producer_commits);
  w.Key("wake_batch_size").Int(r.wake_batch_size);
  w.Key("cas_claim_fast_path").Bool(r.cas_claim_fast_path);
  w.Key("seconds").Double(r.seconds);
  w.Key("commits_per_sec").Double(r.commits_per_sec);
  w.Key("wake_checks").U64(r.wake_checks);
  w.Key("wake_checks_per_commit").Double(r.wake_checks_per_commit);
  w.Key("wake_batches").U64(r.wake_batches);
  w.Key("wake_batches_per_commit").Double(r.wake_batches_per_commit);
  w.Key("cas_claims").U64(r.cas_claims);
  w.Key("cas_fallbacks").U64(r.cas_fallbacks);
  w.Key("wake_tx_aborts").U64(r.wake_tx_aborts);
  // Precision rows: vacuous empty-waitset posts are conservative broadcasts,
  // not satisfied wakes, so they are subtracted out of genuine_wakeups.
  w.Key("wakeups").U64(r.wakeups);
  w.Key("vacuous_wakeups").U64(r.vacuous_wakeups);
  w.Key("genuine_wakeups").U64(r.genuine_wakeups);
  w.Key("spin_wakeups").U64(r.spin_wakeups);
  // Latency distributions (src/obs/ histograms, hot phase only). Percentiles
  // are log2-bucket upper bounds — conservative for SLO claims.
  w.Key("commit_latency_count").U64(r.commit_latency_count);
  w.Key("commit_p50_ns").U64(r.commit_p50_ns);
  w.Key("commit_p99_ns").U64(r.commit_p99_ns);
  w.Key("commit_p999_ns").U64(r.commit_p999_ns);
  w.Key("wake_latency_count").U64(r.wake_latency_count);
  w.Key("wake_p50_ns").U64(r.wake_p50_ns);
  w.Key("wake_p99_ns").U64(r.wake_p99_ns);
  w.Key("wake_p999_ns").U64(r.wake_p999_ns);
  w.EndObject();
}

void EmitWakeIndex(JsonWriter& w, const std::vector<Backend>& backends,
                   const std::vector<int>& waiter_counts,
                   std::uint64_t commits) {
  w.Key("wake_index").BeginArray();
  struct Summary {
    Backend backend;
    int waiters;
    double speedup;
  };
  std::vector<Summary> summaries;
  for (Backend b : backends) {
    for (int n : waiter_counts) {
      WakeTrialResult scan =
          RunWakeIndexTrial(b, /*targeted=*/false, n, commits);
      WakeTrialResult idx = RunWakeIndexTrial(b, /*targeted=*/true, n, commits);
      EmitWakeTrialRow(w, scan);
      EmitWakeTrialRow(w, idx);
      double speedup = scan.commits_per_sec > 0
                           ? idx.commits_per_sec / scan.commits_per_sec
                           : 0.0;
      summaries.push_back({b, n, speedup});
      std::printf("wake_index  backend=%-10s waiters=%-4d "
                  "global=%.0f/s targeted=%.0f/s speedup=%.2fx\n",
                  BackendName(b), n, scan.commits_per_sec, idx.commits_per_sec,
                  speedup);
    }
  }
  w.EndArray();
  w.Key("wake_index_summary").BeginArray();
  for (const Summary& s : summaries) {
    w.BeginObject();
    w.Key("backend").String(BackendName(s.backend));
    w.Key("waiters").Int(s.waiters);
    w.Key("speedup_wake_index_vs_global_scan").Double(s.speedup);
    w.EndObject();
  }
  w.EndArray();
}

// Shard-count ablation: 64 disjoint waiters, silent producer (every commit
// pays the wake path, nobody is ever satisfied, so all 64 stay parked), shard
// count swept 64 / 256 / 1024. wake_checks_per_commit is then a deterministic
// precision metric — 1.0 means the producer only ever checks the one waiter
// registered under the hot cell's shard; the gap above 1.0 is shard aliasing,
// which more shards shrink.
void EmitWakeShardSweep(JsonWriter& w, const std::vector<Backend>& backends,
                        std::uint64_t commits) {
  w.Key("wake_index_shard_sweep").BeginArray();
  for (Backend b : backends) {
    for (int shards : {64, 256, 1024}) {
      WakeTrialOptions opts;
      opts.backend = b;
      opts.targeted = true;
      opts.waiters = 64;
      opts.producer_commits = commits;
      opts.num_shards = shards;
      opts.silent_producer = true;
      WakeTrialResult r = RunWakeIndexTrial(opts);
      EmitWakeTrialRow(w, r);
      std::printf("wake_shard_sweep backend=%-10s shards=%-5d "
                  "checks/commit=%.3f targeted=%.0f/s\n",
                  BackendName(b), shards, r.wake_checks_per_commit,
                  r.commits_per_sec);
    }
  }
  w.EndArray();
}

// Many-waiter scenario (256–1024 parked threads): disjoint and overlapping
// waitsets, targeted vs global scan. This is the production-scale shape the
// >64-shard index exists for; the global-scan baseline at these counts pays
// waiters × commits wake checks.
void EmitWakeManyWaiters(JsonWriter& w, const std::vector<Backend>& backends,
                         const std::vector<int>& waiter_counts,
                         std::uint64_t commits) {
  w.Key("wake_index_many_waiters").BeginArray();
  for (Backend b : backends) {
    for (int n : waiter_counts) {
      for (WaitsetShape shape :
           {WaitsetShape::kDisjoint, WaitsetShape::kOverlapping}) {
        for (bool targeted : {false, true}) {
          WakeTrialOptions opts;
          opts.backend = b;
          opts.targeted = targeted;
          opts.waiters = n;
          opts.producer_commits = commits;
          opts.shape = shape;
          WakeTrialResult r = RunWakeIndexTrial(opts);
          EmitWakeTrialRow(w, r);
          std::printf("wake_many   backend=%-10s waiters=%-5d shape=%-11s "
                      "mode=%-11s checks/commit=%.3f commits/s=%.0f\n",
                      BackendName(b), n, WaitsetShapeName(shape),
                      targeted ? "wake_index" : "global_scan",
                      r.wake_checks_per_commit, r.commits_per_sec);
        }
      }
    }
  }
  w.EndArray();
}

// Wake-batching ablation: batch size swept 1/4/8/16 with many parked waiters
// under the global-scan wake path — the shape where a committing writer pays
// one wake check per registered waiter, so the per-candidate internal
// transactions (batch_size=1, the paper's Algorithm 4) dominate the wake
// path. Batching coalesces those checks: wake_batches_per_commit should track
// ceil(candidates / batch_size), and commits_per_sec is the throughput win.
void EmitWakeBatchSweep(JsonWriter& w, const std::vector<Backend>& backends,
                        const std::vector<int>& waiter_counts,
                        std::uint64_t commits) {
  w.Key("wake_batching_sweep").BeginArray();
  for (Backend b : backends) {
    for (int n : waiter_counts) {
      if (n > 256 && b != Backend::kEagerStm) {
        // 1024 parked threads per trial; keep the tail of the sweep on one
        // backend so full-run wall time stays sane.
        continue;
      }
      double base_cps = 0.0;
      for (int batch : {1, 4, 8, 16}) {
        WakeTrialOptions opts;
        opts.backend = b;
        opts.targeted = false;  // global scan: every commit checks everyone
        opts.waiters = n;
        opts.producer_commits = commits;
        opts.wake_batch_size = batch;
        // The rows isolate the batching variable: no fast-path claims.
        opts.cas_claim_fast_path = false;
        WakeTrialResult r = RunWakeIndexTrial(opts);
        EmitWakeTrialRow(w, r);
        if (batch == 1) {
          base_cps = r.commits_per_sec;
        }
        double speedup =
            base_cps > 0 ? r.commits_per_sec / base_cps : 0.0;
        std::printf("wake_batch  backend=%-10s waiters=%-5d batch=%-3d "
                    "batches/commit=%.2f checks/commit=%.2f commits/s=%.0f "
                    "speedup_vs_batch1=%.2fx\n",
                    BackendName(b), n, batch, r.wake_batches_per_commit,
                    r.wake_checks_per_commit, r.commits_per_sec, speedup);
      }
    }
  }
  w.EndArray();
}

// CAS fast-path ablation: 1–4 disjoint waiters — the paper's common case of a
// few threads blocked on distinct conditions — on the targeted wake path.
// With the fast path off, every satisfied waiter costs at least one internal
// wake transaction; with it on, the claim is a single orec CAS and
// wake_batches_per_commit collapses to ~0 while cas_claims carries the wakes.
void EmitCasClaimAblation(JsonWriter& w, const std::vector<Backend>& backends,
                          std::uint64_t commits) {
  w.Key("cas_claim_ablation").BeginArray();
  for (Backend b : backends) {
    for (int n : {1, 2, 4}) {
      for (bool cas : {false, true}) {
        WakeTrialOptions opts;
        opts.backend = b;
        opts.targeted = true;
        opts.waiters = n;
        opts.producer_commits = commits;
        opts.cas_claim_fast_path = cas;
        WakeTrialResult r = RunWakeIndexTrial(opts);
        EmitWakeTrialRow(w, r);
        std::printf("cas_claim   backend=%-10s waiters=%-2d cas=%-3s "
                    "batches/commit=%.3f cas_claims=%llu commits/s=%.0f\n",
                    BackendName(b), n, cas ? "on" : "off",
                    r.wake_batches_per_commit,
                    static_cast<unsigned long long>(r.cas_claims),
                    r.commits_per_sec);
      }
    }
  }
  w.EndArray();
}

void EmitWaiterScaleRow(JsonWriter& w, const WaiterScaleResult& r) {
  w.BeginObject();
  w.Key("backend").String(BackendName(r.backend));
  w.Key("requested_waiters").Int(r.requested_waiters);
  w.Key("waiters").Int(r.waiters);
  w.Key("spawned").Int(r.spawned);
  w.Key("uses_futex").Bool(r.uses_futex);
  w.Key("park_seconds").Double(r.park_seconds);
  w.Key("wake_seconds").Double(r.wake_seconds);
  w.Key("wake_rounds").U64(r.wake_rounds);
  w.Key("acks").U64(r.acks);
  w.Key("lost_wakeups").U64(r.lost_wakeups);
  w.Key("wake_index_bytes").U64(r.wake_index_bytes);
  w.Key("mem_bytes_per_waiter").Double(r.mem_bytes_per_waiter);
  w.Key("timed_waits").U64(r.timed_waits);
  w.Key("wheel_ticks").U64(r.wheel_ticks);
  w.Key("wheel_scheduled").U64(r.wheel_scheduled);
  w.Key("wheel_fired").U64(r.wheel_fired);
  w.Key("wheel_stale").U64(r.wheel_stale);
  w.Key("wheel_max_lag_ns").U64(r.wheel_max_lag_ns);
  w.Key("wake_latency_count").U64(r.wake_latency_count);
  w.Key("wake_p50_ns").U64(r.wake_p50_ns);
  w.Key("wake_p99_ns").U64(r.wake_p99_ns);
  w.Key("wake_p999_ns").U64(r.wake_p999_ns);
  w.EndObject();
}

void PrintWaiterScaleRow(const WaiterScaleResult& r) {
  if (r.waiters < r.requested_waiters) {
    std::printf(
        "waiter_scale: requested %d waiters clamped to %d by the machine's "
        "PID budget (kernel.pid_max)\n",
        r.requested_waiters, r.waiters);
  }
  std::printf(
      "waiter_scale backend=%-10s waiters=%-7d spawned=%-7d lost=%llu "
      "mem/waiter=%.0fB wake_p99=%lluns timed=%llu ticks=%llu\n",
      BackendName(r.backend), r.waiters, r.spawned,
      static_cast<unsigned long long>(r.lost_wakeups), r.mem_bytes_per_waiter,
      static_cast<unsigned long long>(r.wake_p99_ns),
      static_cast<unsigned long long>(r.timed_waits),
      static_cast<unsigned long long>(r.wheel_ticks));
}

// Capacity-tier sweep: one 10^4/10^5-waiter point per backend. The CI gate
// (bench-smoke) asserts lost_wakeups == 0, bounded mem_bytes_per_waiter, and
// wheel_ticks < timed_waits over these rows.
void EmitWaiterScale(JsonWriter& w, const std::vector<Backend>& backends,
                     int waiters) {
  w.Key("waiter_scale_sweep").BeginArray();
  for (Backend b : backends) {
    WaiterScaleOptions opts;
    opts.backend = b;
    opts.waiters = waiters;
    WaiterScaleResult r = RunWaiterScaleTrial(opts);
    EmitWaiterScaleRow(w, r);
    PrintWaiterScaleRow(r);
  }
  w.EndArray();
}

void EmitBounded(JsonWriter& w, const std::vector<Backend>& backends,
                 const BoundedGridOptions& base) {
  w.Key("bounded_buffer").BeginArray();
  for (Backend b : backends) {
    BoundedGridOptions opts = base;
    opts.backend = b;
    opts.include_retry_orig = (b != Backend::kSimHtm);
    for (const BoundedGridRow& r : CollectBoundedGrid(opts)) {
      w.BeginObject();
      w.Key("backend").String(BackendName(b));
      w.Key("mechanism").String(MechanismName(r.mech));
      w.Key("producers").Int(r.producers);
      w.Key("consumers").Int(r.consumers);
      w.Key("buffer_size").U64(r.buffer_size);
      w.Key("mean_s").Double(r.mean_s);
      w.Key("stddev_s").Double(r.stddev_s);
      w.EndObject();
    }
    std::printf("bounded_buffer backend=%s done\n", BackendName(b));
  }
  w.EndArray();
}

void EmitParsec(JsonWriter& w, const std::vector<Backend>& backends,
                const ParsecGridOptions& base) {
  w.Key("parsec").BeginArray();
  for (Backend b : backends) {
    ParsecGridOptions opts = base;
    opts.backend = b;
    opts.include_retry_orig = (b != Backend::kSimHtm);
    for (const ParsecGridRow& r : CollectParsecGrid(opts)) {
      w.BeginObject();
      w.Key("backend").String(BackendName(b));
      w.Key("app").String(r.app);
      w.Key("mechanism").String(MechanismName(r.mech));
      w.Key("threads").Int(r.threads);
      w.Key("mean_s").Double(r.mean_s);
      w.Key("stddev_s").Double(r.stddev_s);
      w.Key("throughput").Double(r.throughput);
      w.EndObject();
    }
    std::printf("parsec backend=%s done\n", BackendName(b));
  }
  w.EndArray();
}

// §2.3's tradeoff at fixed sizes, on all three backends even under --quick
// (a row takes well under a second). CI's bench-smoke job gates the exact
// counts stated in bench/condsync_ablations.h.
void EmitWakeupPrecision(JsonWriter& w, std::uint64_t steps) {
  w.Key("wakeup_precision").BeginArray();
  for (Backend b : {Backend::kEagerStm, Backend::kLazyStm, Backend::kSimHtm}) {
    for (Mechanism m :
         {Mechanism::kWaitPred, Mechanism::kAwait, Mechanism::kRetry}) {
      WakeupPrecisionRow r = RunWakeupPrecision(b, m, steps);
      w.BeginObject();
      w.Key("backend").String(BackendName(r.backend));
      w.Key("mechanism").String(MechanismName(r.mech));
      w.Key("steps").U64(r.steps);
      w.Key("sleeps").U64(r.sleeps);
      w.Key("wakeups").U64(r.wakeups);
      w.Key("wake_checks").U64(r.wake_checks);
      w.Key("false_wakeups").U64(r.false_wakeups);
      w.Key("waitset_entries").U64(r.waitset_entries);
      w.Key("seconds").Double(r.seconds);
      w.EndObject();
      std::printf("wakeup_precision backend=%-10s mech=%-8s wakeups=%llu "
                  "false_wakeups=%llu wake_checks=%llu\n",
                  BackendName(b), MechanismName(m),
                  static_cast<unsigned long long>(r.wakeups),
                  static_cast<unsigned long long>(r.false_wakeups),
                  static_cast<unsigned long long>(r.wake_checks));
    }
  }
  w.EndArray();
}

// §2.4.2: writer-commit cost against the waiter's read-set size K, for Await
// and Retry, with the paper's global scan and with the wake index.
void EmitWaitsetPruning(JsonWriter& w, const std::vector<Backend>& backends,
                        std::uint64_t commits) {
  w.Key("waitset_pruning").BeginArray();
  for (Backend b : backends) {
    for (std::uint64_t k : {0, 64, 512, 4096}) {
      for (bool targeted : {false, true}) {
        for (Mechanism m : {Mechanism::kAwait, Mechanism::kRetry}) {
          WaitsetPruningRow r = RunWaitsetPruning(b, m, targeted, k, commits);
          w.BeginObject();
          w.Key("backend").String(BackendName(r.backend));
          w.Key("mechanism").String(MechanismName(r.mech));
          w.Key("mode").String(r.targeted ? "wake_index" : "global_scan");
          w.Key("extra_reads").U64(r.extra_reads);
          w.Key("commits").U64(r.commits);
          w.Key("waitset_entries").U64(r.waitset_entries);
          w.Key("wake_checks").U64(r.wake_checks);
          w.Key("wake_checks_per_commit").Double(r.wake_checks_per_commit);
          w.Key("ns_per_commit").Double(r.ns_per_commit);
          w.EndObject();
          std::printf("waitset_pruning backend=%-10s K=%-5llu mode=%-11s "
                      "mech=%-6s checks/commit=%.3f ns/commit=%.0f\n",
                      BackendName(b), static_cast<unsigned long long>(k),
                      targeted ? "wake_index" : "global_scan",
                      MechanismName(m), r.wake_checks_per_commit,
                      r.ns_per_commit);
        }
      }
    }
  }
  w.EndArray();
}

// Table 2.1, measured from the adapter sources of this checkout.
void EmitLocTable(JsonWriter& w) {
  w.Key("table_2_1").BeginArray();
  for (const LocTableRow& r : CountLocTable(TCS_SOURCE_DIR)) {
    w.BeginObject();
    w.Key("app").String(r.app);
    w.Key("sync_points").U64(r.sync_points);
    w.Key("waitpred").Int(r.waitpred);
    w.Key("await").Int(r.await);
    w.Key("retry").Int(r.retry);
    w.Key("removed").Int(r.removed);
    w.EndObject();
    std::printf("table_2_1 %-14s (%zu) WaitPred=%d Await=%d Retry=%d "
                "Removed=%d\n",
                r.app.c_str(), r.sync_points, r.waitpred, r.await, r.retry,
                r.removed);
  }
  w.EndArray();
}

int Run(int argc, char** argv) {
  // Every flag is read here, before any scenario runs.
  BenchFlags flags(argc, argv,
                   {"quick", "paper", "out", "scenario", "ops", "trials",
                    "max_side", "scale", "max_threads", "commits",
                    "many_commits", "scale_waiters"});
  const bool quick = flags.GetBool("quick", false);
  const std::string out = flags.GetString("out", "BENCH_wakeup.json");
  const std::string scenario = flags.GetString("scenario", "all");
  if (scenario != "all" && scenario != "wake_index" &&
      scenario != "waiter_scale" && scenario != "bounded" &&
      scenario != "parsec" && scenario != "wakeup_precision" &&
      scenario != "waitset_pruning" && scenario != "table_2_1") {
    std::fprintf(stderr,
                 "unknown scenario: %s (expected all, wake_index, "
                 "waiter_scale, bounded, parsec, wakeup_precision, "
                 "waitset_pruning or table_2_1)\n",
                 scenario.c_str());
    return 2;
  }

  std::vector<Backend> backends =
      quick ? std::vector<Backend>{Backend::kEagerStm}
            : std::vector<Backend>{Backend::kEagerStm, Backend::kLazyStm,
                                   Backend::kSimHtm};

  std::vector<int> waiter_counts = quick ? std::vector<int>{16, 64}
                                         : std::vector<int>{4, 16, 64};
  std::uint64_t commits = flags.GetU64("commits", quick ? 1500 : 4000);
  // Many-waiter trials pay waiters × commits wake checks on the global-scan
  // baseline, so they run fewer producer commits.
  std::vector<int> many_waiter_counts =
      quick ? std::vector<int>{256} : std::vector<int>{256, 1024};
  std::uint64_t many_commits =
      flags.GetU64("many_commits", quick ? 300 : 600);
  // 10^5 parked waiters per full-run point; CI (--quick) runs the 10^4 point.
  const int scale_waiters = static_cast<int>(
      flags.GetU64("scale_waiters", quick ? 10000 : 100000));

  BoundedGridOptions bounded;
  bounded.ops = quick ? 1 << 11 : 1 << 14;
  bounded.trials = quick ? 1 : 3;
  bounded.max_side = quick ? 2 : 4;
  bounded = ApplyFlags(bounded, flags);

  // All eight apps run even in --quick: the CI artifact carries per-app
  // throughput for the whole suite (scale stays test-sized).
  ParsecGridOptions parsec;
  parsec.scale = quick ? 1 : 2;
  parsec.trials = quick ? 1 : 3;
  parsec.max_threads = quick ? 4 : 8;
  parsec = ApplyParsecFlags(parsec, flags);

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("tcsync");
  w.Key("schema_version").Int(1);
  w.Key("quick").Bool(quick);
  w.Key("scenarios").BeginObject();
  if (scenario == "all" || scenario == "wake_index") {
    EmitWakeIndex(w, backends, waiter_counts, commits);
    EmitWakeShardSweep(w, backends, commits);
    // The many-waiter matrix spawns up to 1024 threads per trial; sweep it on
    // the eager backend only to keep the full run's wall time sane.
    EmitWakeManyWaiters(w, {Backend::kEagerStm}, many_waiter_counts,
                        many_commits);
    // The batching sweep reuses the many-waiter shape (global scan, so every
    // commit pays one check per waiter); full runs cover all three backends
    // at 256 waiters plus eager at 1024.
    EmitWakeBatchSweep(w, backends, many_waiter_counts, many_commits);
    EmitCasClaimAblation(w, backends, commits);
  }
  if (scenario == "all" || scenario == "waiter_scale") {
    EmitWaiterScale(w, backends, scale_waiters);
  }
  if (scenario == "all" || scenario == "bounded") {
    EmitBounded(w, backends, bounded);
  }
  if (scenario == "all" || scenario == "parsec") {
    EmitParsec(w, backends, parsec);
  }
  if (scenario == "all" || scenario == "wakeup_precision") {
    EmitWakeupPrecision(w, quick ? 400 : 2000);
  }
  if (scenario == "all" || scenario == "waitset_pruning") {
    EmitWaitsetPruning(w, backends, commits);
  }
  if (scenario == "all" || scenario == "table_2_1") {
    EmitLocTable(w);
  }
  w.EndObject();
  w.EndObject();
  if (!w.WriteFile(out)) {
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace tcs

int main(int argc, char** argv) { return tcs::Run(argc, argv); }
