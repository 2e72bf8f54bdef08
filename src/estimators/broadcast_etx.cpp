#include "estimators/broadcast_etx.hpp"

#include <algorithm>

#include "common/byte_io.hpp"

namespace fourbit::estimators {
namespace {

constexpr double kQuantum = 255.0;

std::uint8_t quantize_prr(double prr) {
  const double clamped = std::clamp(prr, 0.0, 1.0);
  return static_cast<std::uint8_t>(clamped * kQuantum + 0.5);
}

double dequantize_prr(std::uint8_t q) {
  return static_cast<double>(q) / kQuantum;
}

}  // namespace

BroadcastEtxEstimator::BroadcastEtxEstimator(NodeId self,
                                             BroadcastEtxConfig config,
                                             sim::Rng rng)
    : TableEstimator(config.table_capacity, config.insertion,
                     config.probabilistic_insert_p, rng),
      address_(self),
      config_(config) {}

std::vector<std::uint8_t> BroadcastEtxEstimator::wrap_beacon(
    std::span<const std::uint8_t> routing_payload) {
  // Header: seq, footer-count; footer: (node, inbound quality) pairs.
  // With more table entries than footer_max, consecutive beacons rotate
  // through the table so every neighbor is eventually reported.
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u8(next_beacon_seq());

  std::vector<std::pair<NodeId, std::uint8_t>> footer;
  const std::size_t n = entries().size();
  for (std::size_t i = 0; i < n && footer.size() < config_.footer_max; ++i) {
    const auto& e = entries()[(footer_rotation_ + i) % n];
    if (!e.data.inbound_prr.has_value()) continue;
    footer.emplace_back(e.node, quantize_prr(e.data.inbound_prr.value()));
  }
  if (n > 0) footer_rotation_ = (footer_rotation_ + config_.footer_max) % n;

  w.u8(static_cast<std::uint8_t>(footer.size()));
  for (const auto& [node, q] : footer) {
    w.u16(node.value());
    w.u8(q);
  }
  w.bytes(routing_payload);
  return out;
}

std::optional<std::vector<std::uint8_t>> BroadcastEtxEstimator::unwrap_beacon(
    NodeId from, std::span<const std::uint8_t> bytes,
    const link::PacketPhyInfo& phy) {
  ByteReader r{bytes};
  const std::uint8_t seq = r.u8();
  const std::uint8_t footer_count = r.u8();
  bool reported_us = false;
  double reported_prr = 0.0;
  for (std::uint8_t i = 0; i < footer_count; ++i) {
    const NodeId node{r.u16()};
    const std::uint8_t q = r.u8();
    // The footer entry about *us* carries the reverse-direction quality.
    if (node == address_) {
      reported_us = true;
      reported_prr = dequantize_prr(q);
    }
  }
  if (!r.ok()) return std::nullopt;
  const auto payload_span = r.rest();
  std::vector<std::uint8_t> payload{payload_span.begin(), payload_span.end()};

  Entry* entry = find(from);
  if (entry == nullptr) {
    if (admit(from, phy, payload)) {
      entry = &insert(from, BroadcastEtxLinkState{config_}, seq);
      entry->data.last_seq = seq;
      entry->data.window_received = 1;
      entry->data.window_expected = 1;
      // Bootstrap the inbound quality from this first beacon (the
      // bidirectional product still needs the neighbor's reverse report
      // before the link is usable — the in-degree limitation stands).
      entry->data.inbound_prr.seed(1.0);
    }
  } else {
    BroadcastEtxLinkState& st = entry->data;
    const std::uint8_t gap = static_cast<std::uint8_t>(seq - st.last_seq);
    st.window_expected += std::max<std::uint32_t>(gap, 1);
    st.window_received += 1;
    st.last_seq = seq;
    if (st.window_expected >= config_.beacon_window) {
      const double prr =
          std::min(1.0, static_cast<double>(st.window_received) /
                            static_cast<double>(st.window_expected));
      st.inbound_prr.update(prr);
      st.window_received = 0;
      st.window_expected = 0;
    }
  }

  if (entry != nullptr && reported_us) {
    entry->data.has_reverse = true;
    entry->data.reverse_prr = reported_prr;
  }
  return payload;
}

std::optional<double> BroadcastEtxEstimator::etx(NodeId n) const {
  const Entry* entry = find(n);
  if (entry == nullptr) return std::nullopt;
  const BroadcastEtxLinkState& st = entry->data;
  // Bidirectional ETX needs both directions: our inbound measurement and
  // their reported reverse quality. Without the reverse report (we are
  // not in their table) the link cannot be used — the in-degree limit.
  if (!st.inbound_prr.has_value() || !st.has_reverse) return std::nullopt;
  const double product = st.inbound_prr.value() * st.reverse_prr;
  if (product <= 1.0 / config_.max_etx) return config_.max_etx;
  return std::max(1.0, 1.0 / product);
}

std::optional<double> BroadcastEtxEstimator::inbound_quality(NodeId n) const {
  const Entry* e = find(n);
  if (e == nullptr || !e->data.inbound_prr.has_value()) return std::nullopt;
  return e->data.inbound_prr.value();
}

std::optional<double> BroadcastEtxEstimator::reverse_quality(NodeId n) const {
  const Entry* e = find(n);
  if (e == nullptr || !e->data.has_reverse) return std::nullopt;
  return e->data.reverse_prr;
}

}  // namespace fourbit::estimators
