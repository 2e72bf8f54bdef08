// Tests of the baseline estimators: broadcast-probe bidirectional ETX
// (CTP/MintRoute style) and the LQI estimator (MultiHopLQI style).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "estimators/broadcast_etx.hpp"
#include "estimators/lqi_estimator.hpp"
#include "sim/rng.hpp"
#include "sim/telemetry.hpp"

namespace fourbit::estimators {
namespace {

link::PacketPhyInfo info(bool white = true, int lqi = 108) {
  return {.white = white, .lqi = lqi};
}

// ---- BroadcastEtxEstimator ---------------------------------------------------

TEST(BroadcastEtxTest, BeaconRoundTripCarriesPayload) {
  BroadcastEtxEstimator a{NodeId{1}, BroadcastEtxConfig{}, sim::Rng{1}};
  BroadcastEtxEstimator b{NodeId{2}, BroadcastEtxConfig{}, sim::Rng{2}};
  const std::vector<std::uint8_t> payload{5, 6, 7};
  const auto wire = a.wrap_beacon(payload);
  const auto out = b.unwrap_beacon(NodeId{1}, wire, info());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
}

TEST(BroadcastEtxTest, EtxRequiresBothDirections) {
  // b hears a's beacons, but a never reports b in a footer -> no ETX.
  BroadcastEtxEstimator a{NodeId{1}, BroadcastEtxConfig{}, sim::Rng{1}};
  BroadcastEtxEstimator b{NodeId{2}, BroadcastEtxConfig{}, sim::Rng{2}};
  const std::vector<std::uint8_t> payload;
  for (int i = 0; i < 6; ++i) {
    (void)b.unwrap_beacon(NodeId{1}, a.wrap_beacon(payload), info());
  }
  EXPECT_TRUE(b.inbound_quality(NodeId{1}).has_value());
  EXPECT_FALSE(b.reverse_quality(NodeId{1}).has_value());
  EXPECT_FALSE(b.etx(NodeId{1}).has_value())
      << "link must be unusable without the reverse report";
}

TEST(BroadcastEtxTest, BidirectionalExchangeYieldsEtx) {
  BroadcastEtxEstimator a{NodeId{1}, BroadcastEtxConfig{}, sim::Rng{1}};
  BroadcastEtxEstimator b{NodeId{2}, BroadcastEtxConfig{}, sim::Rng{2}};
  const std::vector<std::uint8_t> payload;
  // Full exchange: each hears every beacon of the other.
  for (int i = 0; i < 8; ++i) {
    (void)b.unwrap_beacon(NodeId{1}, a.wrap_beacon(payload), info());
    (void)a.unwrap_beacon(NodeId{2}, b.wrap_beacon(payload), info());
  }
  ASSERT_TRUE(b.etx(NodeId{1}).has_value());
  // Perfect exchange in both directions: ETX ~ 1.
  EXPECT_NEAR(b.etx(NodeId{1}).value(), 1.0, 0.05);
  ASSERT_TRUE(a.etx(NodeId{2}).has_value());
  EXPECT_NEAR(a.etx(NodeId{2}).value(), 1.0, 0.05);
}

TEST(BroadcastEtxTest, LossyDirectionRaisesEtx) {
  BroadcastEtxEstimator a{NodeId{1}, BroadcastEtxConfig{}, sim::Rng{1}};
  BroadcastEtxEstimator b{NodeId{2}, BroadcastEtxConfig{}, sim::Rng{2}};
  const std::vector<std::uint8_t> payload;
  // b hears only every second beacon of a (inbound PRR 0.5); a hears all
  // of b's.
  for (int i = 0; i < 60; ++i) {
    const auto wire = a.wrap_beacon(payload);
    if (i % 2 == 0) {
      (void)b.unwrap_beacon(NodeId{1}, wire, info());
    }
    (void)a.unwrap_beacon(NodeId{2}, b.wrap_beacon(payload), info());
  }
  ASSERT_TRUE(b.etx(NodeId{1}).has_value());
  // fwd (a->b) ~0.5 measured at b; rev (b->a) ~1.0 reported by a.
  EXPECT_NEAR(b.etx(NodeId{1}).value(), 2.0, 0.4);
}

TEST(BroadcastEtxTest, AckBitIsIgnored) {
  BroadcastEtxEstimator a{NodeId{1}, BroadcastEtxConfig{}, sim::Rng{1}};
  const std::vector<std::uint8_t> payload;
  BroadcastEtxEstimator b{NodeId{2}, BroadcastEtxConfig{}, sim::Rng{2}};
  for (int i = 0; i < 8; ++i) {
    (void)b.unwrap_beacon(NodeId{1}, a.wrap_beacon(payload), info());
    (void)a.unwrap_beacon(NodeId{2}, b.wrap_beacon(payload), info());
  }
  const double before = b.etx(NodeId{1}).value();
  for (int i = 0; i < 50; ++i) b.on_unicast_result(NodeId{1}, false);
  EXPECT_DOUBLE_EQ(b.etx(NodeId{1}).value(), before)
      << "the probe-based baseline must not react to acks";
}

TEST(BroadcastEtxTest, FooterRotationEventuallyReportsEveryone) {
  BroadcastEtxConfig cfg;
  cfg.table_capacity = 10;
  cfg.footer_max = 3;
  BroadcastEtxEstimator hub{NodeId{100}, cfg, sim::Rng{1}};
  // Ten neighbors beacon to the hub.
  std::vector<std::unique_ptr<BroadcastEtxEstimator>> neighbors;
  for (std::uint16_t i = 1; i <= 10; ++i) {
    neighbors.push_back(std::make_unique<BroadcastEtxEstimator>(
        NodeId{i}, cfg, sim::Rng{i}));
  }
  const std::vector<std::uint8_t> payload;
  for (int round = 0; round < 8; ++round) {
    for (std::uint16_t i = 1; i <= 10; ++i) {
      (void)hub.unwrap_beacon(NodeId{i},
                              neighbors[i - 1]->wrap_beacon(payload), info());
    }
    // Hub beacons; with footer_max=3 it takes ~4 beacons to cover all 10.
    const auto wire = hub.wrap_beacon(payload);
    for (std::uint16_t i = 1; i <= 10; ++i) {
      (void)neighbors[i - 1]->unwrap_beacon(NodeId{100}, wire, info());
    }
  }
  int with_reverse = 0;
  for (std::uint16_t i = 1; i <= 10; ++i) {
    if (neighbors[i - 1]->reverse_quality(NodeId{100}).has_value()) {
      ++with_reverse;
    }
  }
  EXPECT_EQ(with_reverse, 10)
      << "rotation must eventually report every table entry";
}

TEST(BroadcastEtxTest, TableLimitCapsTrackedNeighbors) {
  BroadcastEtxConfig cfg;
  cfg.table_capacity = 4;
  cfg.insertion = link::InsertionPolicy::kNever;
  BroadcastEtxEstimator e{NodeId{0}, cfg, sim::Rng{1}};
  const std::vector<std::uint8_t> payload;
  BroadcastEtxEstimator peer{NodeId{1}, cfg, sim::Rng{9}};
  for (std::uint16_t i = 1; i <= 20; ++i) {
    BroadcastEtxEstimator sender{NodeId{i}, cfg, sim::Rng{i}};
    (void)e.unwrap_beacon(NodeId{i}, sender.wrap_beacon(payload), info());
  }
  EXPECT_EQ(e.table_size(), 4u);
}

TEST(BroadcastEtxTest, UnboundedTableTracksEveryone) {
  BroadcastEtxConfig cfg;
  cfg.table_capacity = 0;
  BroadcastEtxEstimator e{NodeId{0}, cfg, sim::Rng{1}};
  const std::vector<std::uint8_t> payload;
  for (std::uint16_t i = 1; i <= 50; ++i) {
    BroadcastEtxEstimator sender{NodeId{i}, cfg, sim::Rng{i}};
    (void)e.unwrap_beacon(NodeId{i}, sender.wrap_beacon(payload), info());
  }
  EXPECT_EQ(e.table_size(), 50u);
}

TEST(BroadcastEtxTest, MalformedBeaconRejected) {
  BroadcastEtxEstimator e{NodeId{0}, BroadcastEtxConfig{}, sim::Rng{1}};
  const std::vector<std::uint8_t> truncated{0, 5};  // claims 5 footer entries
  EXPECT_FALSE(e.unwrap_beacon(NodeId{1}, truncated, info()).has_value());
}

TEST(BroadcastEtxTest, PinProtectsEntry) {
  BroadcastEtxConfig cfg;
  cfg.table_capacity = 2;
  cfg.insertion = link::InsertionPolicy::kProbabilistic;
  cfg.probabilistic_insert_p = 1.0;
  BroadcastEtxEstimator e{NodeId{0}, cfg, sim::Rng{1}};
  const std::vector<std::uint8_t> payload;
  BroadcastEtxEstimator s1{NodeId{1}, cfg, sim::Rng{11}};
  (void)e.unwrap_beacon(NodeId{1}, s1.wrap_beacon(payload), info());
  EXPECT_TRUE(e.pin(NodeId{1}));
  for (std::uint16_t i = 2; i <= 30; ++i) {
    BroadcastEtxEstimator s{NodeId{i}, cfg, sim::Rng{i}};
    (void)e.unwrap_beacon(NodeId{i}, s.wrap_beacon(payload), info());
  }
  const auto n = e.neighbors();
  EXPECT_NE(std::find(n.begin(), n.end(), NodeId{1}), n.end());
}

// ---- LqiEstimator ---------------------------------------------------------------

TEST(LqiEstimatorTest, MappingMonotoneAndClamped) {
  LqiEstimator e{LqiEstimatorConfig{}};
  EXPECT_DOUBLE_EQ(e.lqi_to_etx(110.0), 1.0);
  EXPECT_DOUBLE_EQ(e.lqi_to_etx(200.0), 1.0);
  EXPECT_DOUBLE_EQ(e.lqi_to_etx(0.0), LqiEstimatorConfig{}.max_etx);
  double prev = 0.0;
  for (double lqi = 110.0; lqi >= 40.0; lqi -= 5.0) {
    const double etx = e.lqi_to_etx(lqi);
    EXPECT_GE(etx, prev);
    prev = etx;
  }
}

TEST(LqiEstimatorTest, BeaconLqiDrivesEtx) {
  LqiEstimator e{LqiEstimatorConfig{}};
  const std::vector<std::uint8_t> wire{0};
  (void)e.unwrap_beacon(NodeId{1}, wire, info(true, 108));
  ASSERT_TRUE(e.etx(NodeId{1}).has_value());
  EXPECT_NEAR(e.etx(NodeId{1}).value(), 1.0, 0.1);
  ASSERT_TRUE(e.smoothed_lqi(NodeId{1}).has_value());
  EXPECT_DOUBLE_EQ(e.smoothed_lqi(NodeId{1}).value(), 108.0);
}

TEST(LqiEstimatorTest, SmoothingBlendsReadings) {
  LqiEstimatorConfig cfg;
  cfg.lqi_history = 0.5;
  LqiEstimator e{cfg};
  const std::vector<std::uint8_t> wire{0};
  (void)e.unwrap_beacon(NodeId{1}, wire, info(true, 100));
  (void)e.unwrap_beacon(NodeId{1}, wire, info(true, 80));
  EXPECT_DOUBLE_EQ(e.smoothed_lqi(NodeId{1}).value(), 90.0);
}

TEST(LqiEstimatorTest, DataPacketsAlsoFeedLqi) {
  LqiEstimatorConfig cfg;
  cfg.lqi_history = 0.0;
  LqiEstimator e{cfg};
  e.on_data_rx(NodeId{4}, info(true, 95));
  ASSERT_TRUE(e.smoothed_lqi(NodeId{4}).has_value());
  EXPECT_DOUBLE_EQ(e.smoothed_lqi(NodeId{4}).value(), 95.0);
}

TEST(LqiEstimatorTest, AckBitDeliberatelyIgnored) {
  LqiEstimator e{LqiEstimatorConfig{}};
  const std::vector<std::uint8_t> wire{0};
  (void)e.unwrap_beacon(NodeId{1}, wire, info(true, 108));
  const double before = e.etx(NodeId{1}).value();
  for (int i = 0; i < 100; ++i) e.on_unicast_result(NodeId{1}, false);
  EXPECT_DOUBLE_EQ(e.etx(NodeId{1}).value(), before)
      << "MultiHopLQI has no link-layer feedback by definition";
}

struct EvictCapture final : sim::TelemetrySink {
  std::vector<sim::TelemetryEvent> evictions;
  void on_event(const sim::TelemetryEvent& event) override {
    if (event.kind == sim::EventKind::kTableEvict) evictions.push_back(event);
  }
};

TEST(LqiEstimatorTest, FullTableEvictsWorstLqi) {
  LqiEstimatorConfig cfg;
  cfg.table_capacity = 2;
  cfg.lqi_history = 0.0;
  LqiEstimator e{cfg};
  sim::TelemetryContext telemetry;
  EvictCapture sink;
  telemetry.set_sink(&sink);
  e.set_telemetry(&telemetry, NodeId{0});
  e.on_data_rx(NodeId{1}, info(true, 60));   // worst
  e.on_data_rx(NodeId{2}, info(true, 100));
  e.on_data_rx(NodeId{3}, info(true, 108));  // evicts node 1
  EXPECT_FALSE(e.smoothed_lqi(NodeId{1}).has_value());
  EXPECT_TRUE(e.smoothed_lqi(NodeId{2}).has_value());
  EXPECT_TRUE(e.smoothed_lqi(NodeId{3}).has_value());
  telemetry.set_sink(nullptr);
  ASSERT_EQ(sink.evictions.size(), 1u);
  EXPECT_EQ(sink.evictions[0].peer, 1u);
  EXPECT_EQ(sink.evictions[0].arg, 3u) << "arg names the admitted node";
  EXPECT_EQ(sink.evictions[0].arg2,
            static_cast<std::uint16_t>(sim::EvictReason::kWorstLink))
      << "worst-LQI replacement is not probabilistic";
}

TEST(LqiEstimatorTest, PinBlocksEviction) {
  LqiEstimatorConfig cfg;
  cfg.table_capacity = 1;
  cfg.lqi_history = 0.0;
  LqiEstimator e{cfg};
  e.on_data_rx(NodeId{1}, info(true, 60));
  EXPECT_TRUE(e.pin(NodeId{1}));
  e.on_data_rx(NodeId{2}, info(true, 110));
  EXPECT_TRUE(e.smoothed_lqi(NodeId{1}).has_value());
  EXPECT_FALSE(e.smoothed_lqi(NodeId{2}).has_value());
}

}  // namespace
}  // namespace fourbit::estimators
