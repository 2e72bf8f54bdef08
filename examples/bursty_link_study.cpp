// bursty_link_study: watch three estimators watch the same dying link.
//
// One unicast link carries steady traffic. Mid-run, receiver-side burst
// interference destroys most packets for two minutes (the paper's
// Figure 3 failure mode). We print, side by side, what each estimation
// strategy believes the link costs:
//   * LQI proxy      — from received packets only; never sees the bursts
//   * beacon PRR     — broadcast-probe estimation at beacon cadence
//   * 4B hybrid      — beacons + the ack bit
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "core/four_bit_estimator.hpp"
#include "estimators/lqi_estimator.hpp"
#include "mac/csma.hpp"
#include "phy/channel.hpp"
#include "phy/interference.hpp"
#include "sim/simulator.hpp"

using namespace fourbit;

int main() {
  sim::Simulator sim;
  sim::Rng rng{7};

  phy::PropagationConfig prop;
  prop.shadowing_sigma_db = 0.0;
  prop.asymmetry_sigma_db = 0.0;

  // Burst: 85% whole-packet loss at the receiver between t=120s and 240s.
  std::vector<phy::ScheduledBurstInterference::Burst> bursts = {
      {NodeId{2}, sim::Time::from_us(0) + sim::Duration::from_seconds(120.0),
       sim::Time::from_us(0) + sim::Duration::from_seconds(240.0), 0.85}};
  phy::Channel channel{sim, phy::PhyConfig{}, prop,
                       std::make_unique<phy::ScheduledBurstInterference>(
                           bursts),
                       rng.fork("channel")};

  phy::Radio tx_radio{channel, NodeId{1}, Position{0, 0},
                      phy::HardwareProfile{}, PowerDbm{0.0}};
  phy::Radio rx_radio{channel, NodeId{2}, Position{35, 0},
                      phy::HardwareProfile{}, PowerDbm{0.0}};
  mac::CsmaMac tx_mac{sim, tx_radio, mac::CsmaConfig{}, rng.fork("txmac")};
  mac::CsmaMac rx_mac{sim, rx_radio, mac::CsmaConfig{}, rng.fork("rxmac")};

  // The three observers. The LQI estimator lives at the RECEIVER (it
  // judges inbound packets); the 4B estimator lives at the SENDER (it
  // judges its own transmissions).
  core::FourBitEstimator fourb{core::FourBitConfig{}, rng.fork("4b")};
  estimators::LqiEstimator lqi{estimators::LqiEstimatorConfig{}};
  {
    link::PacketPhyInfo seed{.white = true, .lqi = 110};
    const std::vector<std::uint8_t> wire{0};
    (void)fourb.unwrap_beacon(NodeId{2}, wire, seed);
  }

  rx_mac.set_rx_handler([&](NodeId src, std::uint8_t,
                            std::span<const std::uint8_t>,
                            const phy::RxInfo& info) {
    lqi.on_data_rx(src, {.white = info.white, .lqi = info.lqi});
  });

  // Beacon-PRR observer: the receiver counts periodic broadcast probes.
  int beacons_sent = 0;
  int beacons_heard = 0;
  rx_mac.set_rx_handler([&](NodeId src, std::uint8_t,
                            std::span<const std::uint8_t> payload,
                            const phy::RxInfo& info) {
    lqi.on_data_rx(src, {.white = info.white, .lqi = info.lqi});
    if (!payload.empty() && payload[0] == 0xBE) ++beacons_heard;
  });

  std::function<void()> send_beacon = [&] {
    tx_mac.send(kBroadcastId, std::vector<std::uint8_t>{0xBE}, nullptr);
    ++beacons_sent;
    sim.schedule_in(sim::Duration::from_seconds(10.0), send_beacon);
  };
  send_beacon();

  // Data traffic: one unicast packet per second, feeding the ack bit.
  std::function<void()> send_data = [&] {
    tx_mac.send(NodeId{2}, std::vector<std::uint8_t>(30, 0xDA),
                [&](const mac::TxResult& r) {
                  fourb.on_unicast_result(NodeId{2}, r.acked);
                });
    sim.schedule_in(sim::Duration::from_seconds(1.0), send_data);
  };
  send_data();

  std::printf("time   | LQI-proxy ETX | beacon PRR | 4B hybrid ETX\n");
  std::printf("-------+---------------+------------+--------------\n");
  for (int t = 20; t <= 360; t += 20) {
    sim.run_until(sim::Time::from_us(0) +
                  sim::Duration::from_seconds(static_cast<double>(t)));
    const auto lqi_etx = lqi.etx(NodeId{1});
    const auto fb_etx = fourb.etx(NodeId{2});
    const double beacon_prr =
        beacons_sent > 0 ? static_cast<double>(beacons_heard) /
                               static_cast<double>(beacons_sent)
                         : 0.0;
    const char* phase =
        (t > 120 && t <= 240) ? "  <-- burst active" : "";
    std::printf("%4ds  | %13.2f | %10.2f | %12.2f%s\n", t,
                lqi_etx.value_or(0.0), beacon_prr, fb_etx.value_or(0.0),
                phase);
  }

  std::printf(
      "\nthe LQI proxy stays near 1.0 throughout (its packets all decode\n"
      "cleanly); the cumulative beacon PRR sags slowly; the 4B hybrid\n"
      "spikes within seconds of the burst and recovers after it.\n");
  return 0;
}
