// Campaign building blocks: trial lists, progress reports, aggregates
// and the shared bench CLI helpers.
//
// Every figure in the paper is a sweep — over seeds, TX power, profiles
// or table sizes — and every trial in such a sweep is an independent
// (config, seed) pair. run_supervised (supervisor.hpp) runs a trial list
// on N threads and returns results indexed exactly like the inputs, so
// the output is bit-identical regardless of thread count or completion
// order.
//
// Determinism contract (verified by tests/campaign_test.cpp): each trial
// constructs its OWN Simulator, Metrics, Rng tree and Network from its
// config alone; run_experiment shares no mutable state between trials.
// Telemetry is per-trial state too: every Simulator owns its own
// sim::TelemetryContext, and traced campaigns write one file per trial
// (supervisor.hpp), so tracing never couples threads.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "runner/experiment.hpp"
#include "stats/aggregate.hpp"

namespace fourbit::runner {

struct TrialFailure;  // supervisor.hpp

/// Progress report delivered after each trial completes. Callback
/// invocations are serialized (never concurrent), but arrive from worker
/// threads in completion order, which is not trial order.
struct TrialProgress {
  std::size_t trial_index = 0;  // index into the trial list
  std::size_t completed = 0;    // trials finished so far, incl. this one
                                // (failures and journal replays count)
  std::size_t total = 0;
  std::size_t failed = 0;       // terminal trial failures so far
  std::size_t retried = 0;      // retry attempts consumed so far
  const ExperimentConfig* config = nullptr;
  /// Null when this trial failed (supervised campaigns only).
  const ExperimentResult* result = nullptr;
  /// Set when this trial terminally failed (supervised campaigns only).
  const TrialFailure* failure = nullptr;
  /// Fleet health so far (distributed dispatch only; zero elsewhere).
  /// The TTY ticker surfaces these the moment they become nonzero.
  std::size_t host_losses = 0;
  std::size_t lease_reassignments = 0;
};

class Campaign {
 public:
  /// Expands `base` into `n` trials with deterministically derived
  /// seeds: trial i gets seed = base.seed + i. The testbed is shared;
  /// sweeps that also re-sample node placement per seed should build
  /// their configs explicitly instead.
  [[nodiscard]] static std::vector<ExperimentConfig> seed_sweep(
      const ExperimentConfig& base, std::size_t n);
};

/// Field-wise aggregates of a result set (one sweep cell).
struct CampaignSummary {
  stats::Aggregate cost;
  stats::Aggregate delivery_ratio;
  stats::Aggregate mean_depth;
  stats::Aggregate parent_changes;
  /// Recovery aggregates over trials that actually suffered faults
  /// (fault-free trials contribute no samples here).
  stats::Aggregate delivery_during_outage;
  stats::Aggregate time_to_reroute_s;

  // Failure accounting, so partial campaigns degrade gracefully instead
  // of silently dropping trials. summarize(results) counts every trial
  // as one clean attempt; summarize(CampaignReport) fills the real
  // numbers and aggregates completed trials only.
  std::size_t trials = 0;     // trials asked for
  std::size_t completed = 0;  // trials with a usable result
  std::uint64_t attempts = 0;  // run_experiment invocations (incl. retries)
  std::uint64_t retries = 0;
  std::uint64_t replayed = 0;  // trials restored from a journal
  /// Worker processes respawned after a death (multi-process pool only).
  std::uint64_t worker_respawns = 0;
  /// Host sessions lost and leases reassigned (distributed dispatch
  /// only, dispatch.hpp). Zero on local campaigns.
  std::uint64_t host_losses = 0;
  std::uint64_t lease_reassignments = 0;
  /// Terminal failures indexed by FailureKind (supervisor.hpp):
  /// assert, exception, timeout, invariant, hard_crash.
  std::array<std::size_t, 5> failures_by_kind{};

  [[nodiscard]] std::size_t failures_total() const {
    return failures_by_kind[0] + failures_by_kind[1] + failures_by_kind[2] +
           failures_by_kind[3] + failures_by_kind[4];
  }
};

[[nodiscard]] CampaignSummary summarize(
    const std::vector<ExperimentResult>& results);

/// Every per-node delivery sample across all trials, pooled (the Fig. 8
/// boxplot population).
[[nodiscard]] std::vector<double> pooled_per_node_delivery(
    const std::vector<ExperimentResult>& results);

// ---- shared bench CLI handling ---------------------------------------
//
// These helpers strip "NAME VALUE" pairs from argv (anywhere after
// argv[0]); remaining positional arguments shift down. They are bench
// front-end conveniences: malformed input prints a clear message to
// stderr and exits nonzero rather than limping on with a garbage value.

/// Strips `name VALUE` and returns VALUE, or nullopt when `name` is
/// absent. A bare trailing `name` with no value is a usage error (stderr
/// + exit 2).
[[nodiscard]] std::optional<std::string> consume_flag(int& argc, char** argv,
                                                      const char* name);

/// Strips `name N` where N must parse fully as a non-negative decimal
/// integer (strtoul; junk, negatives and overflow are usage errors).
[[nodiscard]] std::optional<std::uint64_t> consume_uint_flag(int& argc,
                                                             char** argv,
                                                             const char* name);

/// Strips a bare `name` (no value); returns true when it was present.
[[nodiscard]] bool consume_bool_flag(int& argc, char** argv,
                                     const char* name);

/// Strips "--threads N" and returns N, or 0 (= all cores) if absent.
[[nodiscard]] std::size_t consume_threads_flag(int& argc, char** argv);

/// Progress callback that reports on stderr. On a TTY it ticks a
/// "completed/total" line in place; on a pipe (CI logs) it prints a
/// newline-terminated line every ~5% with percent + ETA instead of a
/// \r-garbled mega-line. Failed and retried counts appear once nonzero,
/// and terminal failures are reported as they happen.
[[nodiscard]] std::function<void(const TrialProgress&)> stderr_progress();

}  // namespace fourbit::runner
