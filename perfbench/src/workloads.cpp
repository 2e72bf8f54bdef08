#include "workloads.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "topology/topology.hpp"

namespace perfbench {
namespace {

using fourbit::runner::ExperimentConfig;
using fourbit::runner::Profile;
namespace sim = fourbit::sim;
namespace topology = fourbit::topology;

// The paper's headline: 4B's delivery cost on Tutornet, relative to
// MultiHopLQI's.
constexpr double kPaperCostChangePct = -44.0;

constexpr Profile kBothProfiles[] = {Profile::kFourBit, Profile::kMultihopLqi};

/// Trial seed `index` of workload stream `stream` under benchmark seed
/// `seed` (splitmix64 finalizer: distinct inputs give unrelated seeds).
std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
                    stream * 0xD1B54A32D192ED03ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFULL;
}

// tutornet_paper: the paper's own headline, both protocols on the same
// Tutornet placements.
constexpr int kTutornetSeeds = 4;
constexpr double kTutornetMinutes = 3.0;

// city_sparse: a city-scale random placement on the sparse channel at a
// rate that loads the network without collapsing it.
constexpr std::size_t kCityNodes = 1000;
constexpr double kCitySideM = 350.0;
constexpr double kCityMinutes = 1.5;
constexpr double kCityPeriodS = 60.0;
// One fixed placement, as a deployed city has; the benchmark seed varies
// the trials on it. Seeded placements made the work per campaign vary
// twice as much between seeds.
constexpr std::uint64_t kCityLayoutSeed = 350;

// fault_fleet: the fault_recovery scenarios, short trials through the
// multi-process pool.
constexpr int kFleetSeeds = 8;
constexpr double kFleetMinutes = 2.0;

Workload tutornet_paper(std::uint64_t seed) {
  Workload w;
  for (const Profile profile : kBothProfiles) {
    for (int s = 0; s < kTutornetSeeds; ++s) {
      const std::uint64_t trial = trial_seed(seed, 1, s);
      sim::Rng rng{trial};
      ExperimentConfig config;
      config.testbed = topology::tutornet(rng);
      config.profile = profile;
      config.duration = sim::Duration::from_minutes(kTutornetMinutes);
      config.seed = trial;
      w.trials.push_back(std::move(config));
    }
  }
  return w;
}

Workload city_sparse(std::uint64_t seed) {
  Workload w;
  const std::uint64_t trial = trial_seed(seed, 2, 0);
  sim::Rng env_rng{trial};
  topology::Testbed testbed = topology::mirage(env_rng);
  sim::Rng layout{kCityLayoutSeed};
  testbed.topology =
      topology::random_uniform(kCityNodes, kCitySideM, kCitySideM, layout);
  testbed.environment.phy.use_spatial_index = true;
  for (const Profile profile : kBothProfiles) {
    ExperimentConfig config;
    config.testbed = testbed;
    config.profile = profile;
    config.duration = sim::Duration::from_minutes(kCityMinutes);
    config.traffic.period = sim::Duration::from_seconds(kCityPeriodS);
    config.seed = trial;
    w.trials.push_back(std::move(config));
  }
  return w;
}

/// The fault_recovery bench's four scenarios, with faults in the middle
/// third of the run.
std::vector<fourbit::runner::FaultSpec> fleet_scenarios(double minutes) {
  const sim::Time w0 =
      sim::Time::from_us(static_cast<std::int64_t>(minutes * 60e6 / 3.0));
  const sim::Time w1 = sim::Time::from_us(
      static_cast<std::int64_t>(minutes * 60e6 * 2.0 / 3.0));
  std::vector<fourbit::runner::FaultSpec> specs(4);
  for (auto& spec : specs) {
    spec.crash_downtime = sim::Duration::from_seconds(120.0);
    spec.window_start = w0;
    spec.window_end = w1;
  }
  specs[0].node_crashes = 6;
  specs[1].link_outages = 4;
  specs[2].node_crashes = 4;
  specs[2].link_outages = 3;
  specs[3].root_region_crash = true;
  return specs;
}

Workload fault_fleet(std::uint64_t seed) {
  Workload w;
  for (const auto& faults : fleet_scenarios(kFleetMinutes)) {
    for (const Profile profile : kBothProfiles) {
      for (int s = 0; s < kFleetSeeds; ++s) {
        const std::uint64_t trial = trial_seed(seed, 3, s);
        sim::Rng rng{trial};
        ExperimentConfig config;
        config.testbed = topology::mirage(rng);
        config.profile = profile;
        config.duration = sim::Duration::from_minutes(kFleetMinutes);
        config.seed = trial;
        config.faults = faults;
        w.trials.push_back(std::move(config));
      }
    }
  }
  return w;
}

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed,
                                      bool zero_duration) {
  std::optional<Workload> w;
  if (name == "tutornet_paper") w = tutornet_paper(seed);
  if (name == "city_sparse") w = city_sparse(seed);
  if (name == "fault_fleet") w = fault_fleet(seed);
  if (w && zero_duration) {
    for (auto& config : w->trials) config.duration = sim::Duration{};
  }
  return w;
}

std::uint64_t result_digest(const fourbit::runner::ExperimentResult& r) {
  Fnv h;
  h.add(r.cost);
  h.add(r.delivery_ratio);
  h.add(r.mean_depth);
  h.add(static_cast<std::uint64_t>(r.per_node_delivery.size()));
  for (const double d : r.per_node_delivery) h.add(d);
  for (const std::uint64_t v :
       {r.generated, r.delivered, r.data_tx, r.beacon_tx, r.radio_frames,
        r.retx_drops, r.queue_drops, r.duplicates, r.parent_changes,
        r.node_crashes, r.node_reboots, r.link_outages, r.route_losses,
        r.parent_evictions, r.pin_refusals, r.generated_during_outage,
        r.generated_post_outage}) {
    h.add(v);
  }
  for (const int depth : r.final_tree.depths) {
    h.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(depth)));
  }
  for (const double v :
       {r.mean_time_to_reroute_s, r.max_time_to_reroute_s,
        r.mean_time_to_first_route_s, r.mean_table_refill_s,
        r.delivery_during_outage, r.delivery_post_outage}) {
    h.add(v);
  }
  return h.value();
}

double paper_cost_gap_pp(
    const Workload& workload,
    const std::vector<fourbit::runner::ExperimentResult>& results) {
  double cost[2] = {0.0, 0.0};
  int n[2] = {0, 0};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const int k = workload.trials[i].profile == Profile::kFourBit ? 0 : 1;
    cost[k] += results[i].cost;
    ++n[k];
  }
  if (n[0] == 0 || n[1] == 0 || cost[1] == 0.0) return 0.0;
  const double change =
      ((cost[0] / n[0]) / (cost[1] / n[1]) - 1.0) * 100.0;
  return std::fabs(change - kPaperCostChangePct);
}

}  // namespace perfbench
