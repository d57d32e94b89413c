#include "src/common/stats.h"

#include <iterator>

namespace tcs {

namespace {

// Indexed by Counter value. The static_assert below makes "added a counter,
// forgot its name" a compile error instead of a silent "unknown" in every
// stats dump (the old switch degraded that way — a missing case only warned).
constexpr std::string_view kCounterNames[] = {
    "commits",
    "read_only_commits",
    "aborts",
    "explicit_restarts",
    "retry_restarts",
    "deschedules",
    "sleeps",
    "wakeups",
    "wake_checks",
    "false_wakeups",
    "htm_fallbacks",
    "htm_capacity_aborts",
    "htm_conflict_aborts",
    "htm_explicit_aborts",
    "condvar_waits",
    "condvar_signals",
    "timestamp_extensions",
    "htm_pred_table_fast_path",
    "waitset_entries",
    "quiesce_calls",
    "wait_timeouts",
    "orelse_fallbacks",
    "partial_rollbacks",
    "indexed_deschedules",
    "global_deschedules",
    "waitset_pruned",
    "orelse_orec_releases",
    "extend_on_validation",
    "extend_on_orec_release",
    "extend_on_commit_validation",
    "extend_on_encounter_acquisition",
    "wake_batches",
    "wake_checks_batched",
    "vacuous_wakeups",
    "trace_events",
    "trace_drops",
    "cas_wake_claims",
    "cas_claim_fallbacks",
    "wake_tx_aborts",
    "condvar_batches",
    "condvar_ring_growths",
    "spin_wakeups",
};
static_assert(std::size(kCounterNames) ==
                  static_cast<std::size_t>(Counter::kNumCounters),
              "kCounterNames out of sync with Counter — name every counter");

}  // namespace

std::string_view CounterName(Counter c) {
  auto i = static_cast<std::size_t>(c);
  return i < std::size(kCounterNames) ? kCounterNames[i] : "unknown";
}

}  // namespace tcs
