// The benchmark's workloads: each is a fixed trial list derived from a
// workload name and a seed, so the same (name, seed) always yields the
// same trials and, through the simulator's determinism, the same results.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "runner/experiment.hpp"

namespace perfbench {

struct Workload {
  std::vector<fourbit::runner::ExperimentConfig> trials;
};

/// Builds the trial list; nullopt for an unknown name. With
/// `zero_duration` every trial keeps its stack but runs no simulated
/// time, which measures set-up alone.
[[nodiscard]] std::optional<Workload> make_workload(std::string_view name,
                                                    std::uint64_t seed,
                                                    bool zero_duration);

/// 64-bit digest of the science outputs of one trial: cost, delivery,
/// depth, packet and frame counters, per-node delivery, parent changes,
/// the final tree and the fault-recovery figures. Engine-health fields
/// (arena bytes, queue resizes) are left out.
[[nodiscard]] std::uint64_t result_digest(
    const fourbit::runner::ExperimentResult& result);

/// |simulated 4B-vs-MultiHopLQI cost change - (-44%)|, in percentage
/// points: the distance from the paper's Tutornet headline, over the
/// workload's trials (all of which must have completed).
[[nodiscard]] double paper_cost_gap_pp(
    const Workload& workload,
    const std::vector<fourbit::runner::ExperimentResult>& results);

}  // namespace perfbench
