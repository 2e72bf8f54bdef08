// The 4B link estimator (Section 3.3 of the paper).
//
// A hybrid data/beacon windowed-mean EWMA estimator:
//  * beacons carry only a sequence number (NOT reverse-link state — the
//    ack bit measures bidirectionality directly, which decouples node
//    in-degree from table size);
//  * every kb expected beacons, the reception fraction feeds an EWMA
//    whose inverse is a broadcast ETX sample;
//  * every ku unicast data transmissions, the acked fraction yields a
//    unicast ETX sample (or, if none were acked, the length of the
//    current failure streak);
//  * both sample streams merge in one outer EWMA: under heavy data
//    traffic unicast samples dominate, on a quiet network beacons do.
//
// Table management (Woo et al.'s replacement with the paper's amendment:
// a white-bit beacon from an unknown node whose compare bit comes back
// true flushes a random unpinned entry), the pin bit and the one-byte
// beacon sequence header come from link::TableEstimator; this class adds
// only the hybrid estimate and the inputs that feed it.
//
// This class depends ONLY on the narrow interfaces in link/ — never on
// the PHY, MAC, or routing implementations (the repository's build graph
// enforces that).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/ring_window.hpp"
#include "core/four_bit_config.hpp"
#include "link/table_estimator.hpp"
#include "sim/rng.hpp"

namespace fourbit::core {

struct FourBitLinkState {
  // Beacon (broadcast) side.
  std::uint8_t last_seq = 0;
  std::uint32_t window_received = 0;
  std::uint32_t window_expected = 0;
  Ewma beacon_prr;
  // Unicast (data) side.
  std::uint32_t window_tx = 0;
  std::uint32_t window_acked = 0;
  std::uint32_t failures_since_success = 0;
  // Combined estimate.
  Ewma etx;

  explicit FourBitLinkState(const FourBitConfig& cfg)
      : beacon_prr(cfg.beacon_prr_history), etx(cfg.etx_history) {}
};

class FourBitEstimator final
    : public link::TableEstimator<FourBitLinkState> {
 public:
  FourBitEstimator(FourBitConfig config, sim::Rng rng);

  // ---- link::LinkEstimator ----
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> unwrap_beacon(
      NodeId from, std::span<const std::uint8_t> bytes,
      const link::PacketPhyInfo& phy) override;
  void on_unicast_result(NodeId to, bool acked) override;
  [[nodiscard]] std::optional<double> etx(NodeId n) const override;

  // ---- introspection (tests, benches) ----
  [[nodiscard]] const FourBitConfig& config() const { return config_; }

  /// Times note_beacon classified a large seq gap as a neighbor reboot
  /// and resynchronized instead of charging phantom losses.
  [[nodiscard]] std::uint64_t seq_resets() const { return seq_resets_; }

  /// Most recent beacon-PRR EWMA for `n` (tests of the inner estimator).
  [[nodiscard]] std::optional<double> beacon_quality(NodeId n) const;

 private:
  void note_beacon(Entry& entry, std::uint8_t seq,
                   const link::PacketPhyInfo& phy);
  /// Feeds one sample into the outer EWMA; `from_data` says which stream
  /// produced it (unicast ack window vs beacon window) for telemetry.
  void feed_etx_sample(NodeId peer, FourBitLinkState& st, double sample,
                       bool from_data);

  FourBitConfig config_;
  std::uint64_t seq_resets_ = 0;
};

}  // namespace fourbit::core
