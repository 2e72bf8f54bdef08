#include "estimators/lqi_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "common/byte_io.hpp"

namespace fourbit::estimators {

LqiEstimator::LqiEstimator(LqiEstimatorConfig config)
    : TableEstimator(config.table_capacity), config_(config) {}

std::optional<std::vector<std::uint8_t>> LqiEstimator::unwrap_beacon(
    NodeId from, std::span<const std::uint8_t> bytes,
    const link::PacketPhyInfo& phy) {
  ByteReader r{bytes};
  const std::uint8_t seq = r.u8();  // LQI estimation does not need gaps
  if (!r.ok()) return std::nullopt;
  const auto payload_span = r.rest();
  std::vector<std::uint8_t> payload{payload_span.begin(), payload_span.end()};
  note_lqi(from, phy.lqi, seq);
  return payload;
}

void LqiEstimator::on_data_rx(NodeId from, const link::PacketPhyInfo& phy) {
  note_lqi(from, phy.lqi, 0);
}

void LqiEstimator::note_lqi(NodeId from, int lqi, std::uint8_t seq) {
  Entry* entry = find(from);
  if (entry == nullptr) {
    // PHY information is free, so eviction favors keeping the
    // best-looking links: drop the worst smoothed LQI.
    const bool room =
        admit_worst(from, [](const Entry& worst, const Entry& e) {
          const double a =
              worst.data.lqi.has_value() ? worst.data.lqi.value() : 1e9;
          const double b = e.data.lqi.has_value() ? e.data.lqi.value() : 1e9;
          return b < a;  // e is worse than current worst
        });
    if (!room) return;
    entry = &insert(from, LqiLinkState{config_}, seq);
  }
  entry->data.lqi.update(static_cast<double>(lqi));
}

double LqiEstimator::lqi_to_etx(double lqi) const {
  const double raw =
      std::pow(10.0, (config_.reference_lqi - lqi) / config_.slope);
  return std::clamp(raw, 1.0, config_.max_etx);
}

std::optional<double> LqiEstimator::etx(NodeId n) const {
  const auto lqi = smoothed_lqi(n);
  if (!lqi) return std::nullopt;
  return lqi_to_etx(*lqi);
}

std::optional<double> LqiEstimator::smoothed_lqi(NodeId n) const {
  const Entry* e = find(n);
  if (e == nullptr || !e->data.lqi.has_value()) return std::nullopt;
  return e->data.lqi.value();
}

}  // namespace fourbit::estimators
