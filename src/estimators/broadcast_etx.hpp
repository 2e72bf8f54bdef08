// Broadcast-probe bidirectional ETX estimator — the stock estimator of
// CTP / MintRoute (Woo et al.), the paper's "CTP T2" baseline.
//
// Beacons carry a footer listing (neighbor, inbound reception quality)
// pairs, so each side can combine the two directions into a bidirectional
// ETX = 1 / (quality_fwd * quality_rev). Two structural weaknesses — both
// demonstrated by the paper — follow directly:
//   * a node can only be chosen as a parent by neighbors that appear in
//     ITS table (otherwise it never reports their inbound quality), so
//     the table size caps a node's useful in-degree;
//   * estimates move only at the beacon rate: when a link dies under data
//     traffic, the estimator finds out beacons later, not acks later.
//
// The table, the pin bit, admission (Woo's probabilistic rule, or the
// white/compare supplement of the "CTP + white/compare" variant) and
// their trace events come from link::TableEstimator.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/ring_window.hpp"
#include "link/table_estimator.hpp"
#include "sim/rng.hpp"

namespace fourbit::estimators {

struct BroadcastEtxConfig {
  /// Link table size; 0 = unbounded ("CTP unconstrained").
  std::size_t table_capacity = 10;

  /// Expected beacons per inbound-PRR sample.
  std::size_t beacon_window = 2;

  /// History weight of the EWMA over inbound PRR samples.
  double prr_history = 2.0 / 3.0;

  /// Max (neighbor, quality) pairs per beacon footer; a full table is
  /// reported round-robin across consecutive beacons.
  std::size_t footer_max = 6;

  /// Table admission rule. kProbabilistic is the Woo baseline; the
  /// "CTP + white/compare" variant of Figure 6 uses kWhiteCompare.
  link::InsertionPolicy insertion = link::InsertionPolicy::kProbabilistic;
  double probabilistic_insert_p = 0.25;

  double max_etx = 16.0;
};

struct BroadcastEtxLinkState {
  std::uint8_t last_seq = 0;
  std::uint32_t window_received = 0;
  std::uint32_t window_expected = 0;
  Ewma inbound_prr;  // what we receive from them
  bool has_reverse = false;
  double reverse_prr = 0.0;  // what they report receiving from us

  explicit BroadcastEtxLinkState(const BroadcastEtxConfig& cfg)
      : inbound_prr(cfg.prr_history) {}
};

class BroadcastEtxEstimator final
    : public link::TableEstimator<BroadcastEtxLinkState> {
 public:
  /// `self` is this node's address — needed to recognize this node in
  /// incoming beacon footers (the reverse-direction quality report).
  BroadcastEtxEstimator(NodeId self, BroadcastEtxConfig config, sim::Rng rng);

  [[nodiscard]] std::vector<std::uint8_t> wrap_beacon(
      std::span<const std::uint8_t> routing_payload) override;
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> unwrap_beacon(
      NodeId from, std::span<const std::uint8_t> bytes,
      const link::PacketPhyInfo& phy) override;

  /// The stock estimator has no link-layer input: acks are ignored.
  void on_unicast_result(NodeId, bool) override {}

  [[nodiscard]] std::optional<double> etx(NodeId n) const override;
  void reset() override {
    TableEstimator::reset();
    footer_rotation_ = 0;
  }

  // Introspection for tests.
  [[nodiscard]] std::optional<double> inbound_quality(NodeId n) const;
  [[nodiscard]] std::optional<double> reverse_quality(NodeId n) const;

 private:
  NodeId address_;
  BroadcastEtxConfig config_;
  std::size_t footer_rotation_ = 0;
};

}  // namespace fourbit::estimators
