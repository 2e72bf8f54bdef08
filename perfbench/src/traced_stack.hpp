// The traced assembly: the stack runner::Network builds, put together
// from the same public parts, with timing decorators on the two virtual
// seams the stack has — mac::Mac (between net and MAC) and
// link::LinkEstimator / link::CompareProvider (between net and the
// estimator). run_traced mirrors runner::run_experiment for the configs
// the benchmark uses and must reproduce its results exactly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "runner/experiment.hpp"
#include "sim/telemetry.hpp"
#include "spans.hpp"

namespace perfbench {

/// What one traced trial measured. Times are nanoseconds inside run_for
/// unless noted; counts cover the whole trial.
struct TraceReport {
  std::int64_t run_ns = 0;          // run_for wall
  std::int64_t dispatch_ns = 0;     // event-dispatch phase total
  std::int64_t freeze_ns = 0;       // channel-freeze phase total
  std::int64_t kernel_ns = 0;       // batch-kernel phase total
  std::int64_t stack_ns = 0;        // stack construction + start
  std::array<std::int64_t, kSeamCount> self_ns{};
  LayerSplit split;
  std::int64_t min_self_ns = 0;     // most negative single span self time

  std::uint64_t events = 0;
  std::uint64_t freezes = 0;
  std::uint64_t kernel_calls = 0;
  std::uint64_t eq_resizes = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t frames_tx = 0;
  double airtime_s = 0.0;

  std::uint64_t mac_sends = 0;
  std::uint64_t rx_upcalls = 0;     // rx + snoop handler invocations
  std::uint64_t compare_calls = 0;
  std::uint64_t etx_calls = 0;
  std::uint64_t unwrap_calls = 0;
  std::uint64_t wrap_calls = 0;
  std::uint64_t unicast_results = 0;
  std::uint64_t unicast_acked = 0;
};

/// Runs one trial on the traced assembly. Supports the configs the
/// benchmark's workloads use: no LPL, energy, audit, trace export or
/// status board.
[[nodiscard]] fourbit::runner::ExperimentResult run_traced(
    const fourbit::runner::ExperimentConfig& config, TraceReport& report);

/// Steady-clock nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
