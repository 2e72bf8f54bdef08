#include "core/four_bit_estimator.hpp"

#include <algorithm>

#include "common/byte_io.hpp"
#include "sim/telemetry.hpp"

namespace fourbit::core {

FourBitEstimator::FourBitEstimator(FourBitConfig config, sim::Rng rng)
    : TableEstimator(config.table_capacity, config.insertion,
                     config.probabilistic_insert_p, rng),
      config_(config) {}

std::optional<std::vector<std::uint8_t>> FourBitEstimator::unwrap_beacon(
    NodeId from, std::span<const std::uint8_t> bytes,
    const link::PacketPhyInfo& phy) {
  ByteReader r{bytes};
  const std::uint8_t seq = r.u8();
  if (!r.ok()) return std::nullopt;
  const auto payload_span = r.rest();
  std::vector<std::uint8_t> payload{payload_span.begin(), payload_span.end()};

  if (Entry* entry = find(from)) {
    note_beacon(*entry, seq, phy);
    return payload;
  }

  if (admit(from, phy, payload)) {
    FourBitLinkState& st = insert(from, FourBitLinkState{config_}, seq).data;
    // Seed the beacon window with this first beacon, and bootstrap the
    // link estimate optimistically from it: the paper's estimator uses
    // "incoming beacon estimates as bootstrapping values for the link
    // qualities, which are refined by the data-based estimates later".
    // Without a bootstrap, a freshly admitted link is unusable for
    // routing until two beacon windows complete — and under table churn
    // entries would be replaced before ever maturing.
    st.last_seq = seq;
    st.window_received = 1;
    st.window_expected = 1;
    st.beacon_prr.seed(1.0);
    st.etx.seed(1.0);
  }
  return payload;
}

void FourBitEstimator::note_beacon(Entry& entry, std::uint8_t seq,
                                   const link::PacketPhyInfo& phy) {
  FourBitLinkState& st = entry.data;
  // Gap since the last beacon (mod-256 arithmetic handles wrap).
  std::uint32_t gap = static_cast<std::uint8_t>(seq - st.last_seq);
  // gap == 0 is a replayed/duplicated beacon (or exactly 256 losses,
  // which at any plausible beacon rate is indistinguishable from a
  // dead link anyway). Counting it would bump both received and
  // expected, letting duplicates inflate the measured reception rate.
  if (gap == 0) return;
  if (config_.seq_reset_gap > 0 && gap > config_.seq_reset_gap) {
    // An implausibly large gap is more likely a neighbor reboot (its
    // beacon sequence restarted near a random value) than that many
    // consecutive losses — IF the white bit on this very packet, or
    // an ack inside the current unicast window, says the link is
    // alive. Resynchronize instead of charging phantom losses.
    const bool alive = phy.white || st.window_acked > 0;
    if (alive) {
      ++seq_resets_;
      gap = 1;
    } else {
      // No liveness evidence: still cap the charge so one wild gap
      // costs at most one saturated window, not up to 255 beacons of
      // debt that would take many windows to amortize.
      gap = static_cast<std::uint32_t>(config_.seq_reset_gap);
    }
  }
  st.window_expected += gap;
  st.window_received += 1;
  st.last_seq = seq;

  if (st.window_expected >= config_.beacon_window) {
    const double prr =
        std::min(1.0, static_cast<double>(st.window_received) /
                          static_cast<double>(st.window_expected));
    st.beacon_prr.update(prr);
    st.window_received = 0;
    st.window_expected = 0;

    const double quality = st.beacon_prr.value();
    const double etx_sample =
        quality <= 0.0 ? config_.max_etx_sample : 1.0 / quality;
    feed_etx_sample(entry.node, st, etx_sample, /*from_data=*/false);
  }
}

void FourBitEstimator::feed_etx_sample(NodeId peer, FourBitLinkState& st,
                                       double sample, bool from_data) {
  const double old_etx = st.etx.has_value() ? st.etx.value() : 0.0;
  st.etx.update(std::clamp(sample, 1.0, config_.max_etx_sample));
  trace(sim::EventKind::kEtxUpdate, peer,
        static_cast<std::uint16_t>(from_data ? sim::EtxStream::kData
                                             : sim::EtxStream::kBeacon),
        0, old_etx, st.etx.value());
}

void FourBitEstimator::on_unicast_result(NodeId to, bool acked) {
  Entry* entry = find(to);
  if (entry == nullptr) return;
  FourBitLinkState& st = entry->data;

  ++st.window_tx;
  if (acked) {
    st.window_acked += 1;
    st.failures_since_success = 0;
  } else {
    st.failures_since_success += 1;
  }

  if (st.window_tx >= config_.unicast_window) {
    double sample;
    if (st.window_acked > 0) {
      sample = static_cast<double>(st.window_tx) /
               static_cast<double>(st.window_acked);
    } else {
      // No ack in the whole window: the estimate is the length of the
      // running failure streak (which may span windows).
      sample = static_cast<double>(st.failures_since_success);
    }
    feed_etx_sample(to, st, sample, /*from_data=*/true);
    st.window_tx = 0;
    st.window_acked = 0;
  }
}

std::optional<double> FourBitEstimator::etx(NodeId n) const {
  const Entry* entry = find(n);
  if (entry == nullptr || !entry->data.etx.has_value()) return std::nullopt;
  return entry->data.etx.value();
}

std::optional<double> FourBitEstimator::beacon_quality(NodeId n) const {
  const Entry* entry = find(n);
  if (entry == nullptr || !entry->data.beacon_prr.has_value()) {
    return std::nullopt;
  }
  return entry->data.beacon_prr.value();
}

}  // namespace fourbit::core
