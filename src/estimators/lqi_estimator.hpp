// LQI-based estimator — the physical-layer-only approach of MultiHopLQI.
//
// Link cost is derived entirely from the radio's LQI readings on received
// beacons. This is cheap and agile for *received* packets, but blind to
// packets that never arrive: a link whose PRR collapses under bursty
// interference keeps reporting pristine LQI on its survivors (the paper's
// Figure 3), so the estimate never degrades. on_unicast_result is
// deliberately ignored — MultiHopLQI has no link-layer feedback path.
//
// The table, the pin bit and their trace events come from
// link::TableEstimator. PHY information is free, so a full table admits
// every new sender by evicting the unpinned entry with the worst
// smoothed LQI (EvictReason::kWorstLink); nothing here draws randomness.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/ring_window.hpp"
#include "link/table_estimator.hpp"

namespace fourbit::estimators {

struct LqiEstimatorConfig {
  /// PHY information is free, so the table can be larger than a
  /// probe-based estimator's; MultiHopLQI effectively tracked whichever
  /// beacons it heard. 0 = unbounded.
  std::size_t table_capacity = 16;

  /// History weight of the EWMA over per-beacon LQI readings. The real
  /// MultiHopLQI used the *instantaneous* LQI of the latest routing
  /// beacon (history 0); a light smoothing is available for ablations.
  double lqi_history = 0.5;

  /// etx proxy = 10^((reference - lqi) / slope), clamped to [1, max].
  /// Saturates at 1 for pristine links and grows steeply below ~105 —
  /// mirroring MultiHopLQI's strongly convex LQI-to-cost tables, which
  /// make it demand near-perfect readings and thus take shorter hops.
  double reference_lqi = 108.0;
  double slope = 8.0;
  double max_etx = 16.0;
};

struct LqiLinkState {
  Ewma lqi;
  explicit LqiLinkState(const LqiEstimatorConfig& cfg)
      : lqi(cfg.lqi_history) {}
};

class LqiEstimator final : public link::TableEstimator<LqiLinkState> {
 public:
  explicit LqiEstimator(LqiEstimatorConfig config);

  [[nodiscard]] std::optional<std::vector<std::uint8_t>> unwrap_beacon(
      NodeId from, std::span<const std::uint8_t> bytes,
      const link::PacketPhyInfo& phy) override;

  /// No link-layer feedback: the defining limitation of this estimator.
  void on_unicast_result(NodeId, bool) override {}

  /// Data packets also carry LQI; MultiHopLQI-class protocols read it.
  void on_data_rx(NodeId from, const link::PacketPhyInfo& phy) override;

  [[nodiscard]] std::optional<double> etx(NodeId n) const override;

  [[nodiscard]] std::optional<double> smoothed_lqi(NodeId n) const;

  /// The LQI -> ETX-proxy mapping, exposed for tests and benches.
  [[nodiscard]] double lqi_to_etx(double lqi) const;

 private:
  /// `seq` is the admitting beacon's sequence number (0 for a data
  /// packet); it only labels a table-insert event.
  void note_lqi(NodeId from, int lqi, std::uint8_t seq);

  LqiEstimatorConfig config_;
};

}  // namespace fourbit::estimators
