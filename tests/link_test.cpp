// Tests of the link-layer abstractions: the neighbor table (and its pin
// bit), estimator interface plumbing, and the table half every estimator
// shares (link::TableEstimator).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/four_bit_estimator.hpp"
#include "estimators/broadcast_etx.hpp"
#include "estimators/lqi_estimator.hpp"
#include "link/neighbor_table.hpp"
#include "link/packet_info.hpp"
#include "link/table_estimator.hpp"
#include "sim/rng.hpp"
#include "sim/telemetry.hpp"

namespace fourbit::link {
namespace {

struct Payload {
  int value = 0;
};

using Table = NeighborTable<Payload>;

TEST(NeighborTableTest, InsertAndFind) {
  Table t{4};
  EXPECT_EQ(t.size(), 0u);
  ASSERT_NE(t.insert(NodeId{1}, Payload{10}), nullptr);
  ASSERT_NE(t.insert(NodeId{2}, Payload{20}), nullptr);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(NodeId{1})->data.value, 10);
  EXPECT_EQ(t.find(NodeId{2})->data.value, 20);
  EXPECT_EQ(t.find(NodeId{3}), nullptr);
}

TEST(NeighborTableTest, FullTableRejectsInsert) {
  Table t{2};
  (void)t.insert(NodeId{1});
  (void)t.insert(NodeId{2});
  EXPECT_TRUE(t.full());
  EXPECT_EQ(t.insert(NodeId{3}), nullptr);
  EXPECT_EQ(t.size(), 2u);
}

TEST(NeighborTableTest, UnboundedNeverFull) {
  Table t{0};
  EXPECT_TRUE(t.unbounded());
  for (std::uint16_t i = 0; i < 100; ++i) {
    ASSERT_NE(t.insert(NodeId{i}), nullptr);
  }
  EXPECT_FALSE(t.full());
  EXPECT_EQ(t.size(), 100u);
}

TEST(NeighborTableTest, PinBitBlocksRemove) {
  Table t{4};
  (void)t.insert(NodeId{1});
  EXPECT_TRUE(t.pin(NodeId{1}));
  EXPECT_FALSE(t.remove(NodeId{1}));  // pinned: must not be removed
  t.unpin(NodeId{1});
  EXPECT_TRUE(t.remove(NodeId{1}));
  EXPECT_EQ(t.size(), 0u);
}

TEST(NeighborTableTest, PinOfAbsentNodeFails) {
  Table t{4};
  EXPECT_FALSE(t.pin(NodeId{9}));
}

TEST(NeighborTableTest, RandomEvictionNeverTouchesPinned) {
  sim::Rng rng{3};
  for (int trial = 0; trial < 50; ++trial) {
    Table t{4};
    (void)t.insert(NodeId{1});
    (void)t.insert(NodeId{2});
    (void)t.insert(NodeId{3});
    (void)t.insert(NodeId{4});
    EXPECT_TRUE(t.pin(NodeId{2}));
    EXPECT_TRUE(t.evict_random_unpinned(rng));
    EXPECT_EQ(t.size(), 3u);
    EXPECT_NE(t.find(NodeId{2}), nullptr) << "pinned entry was evicted";
  }
}

TEST(NeighborTableTest, AllPinnedMeansNoEviction) {
  sim::Rng rng{3};
  Table t{2};
  (void)t.insert(NodeId{1});
  (void)t.insert(NodeId{2});
  EXPECT_TRUE(t.pin(NodeId{1}));
  EXPECT_TRUE(t.pin(NodeId{2}));
  EXPECT_FALSE(t.evict_random_unpinned(rng));
  EXPECT_EQ(t.size(), 2u);
}

TEST(NeighborTableTest, RandomEvictionIsRoughlyUniform) {
  sim::Rng rng{17};
  std::unordered_map<NodeId, int> evicted;
  const int trials = 3000;
  for (int trial = 0; trial < trials; ++trial) {
    Table t{3};
    (void)t.insert(NodeId{1});
    (void)t.insert(NodeId{2});
    (void)t.insert(NodeId{3});
    EXPECT_TRUE(t.evict_random_unpinned(rng));
    for (std::uint16_t i = 1; i <= 3; ++i) {
      if (t.find(NodeId{i}) == nullptr) evicted[NodeId{i}] += 1;
    }
  }
  for (std::uint16_t i = 1; i <= 3; ++i) {
    EXPECT_NEAR(evicted[NodeId{i}], trials / 3, trials / 10);
  }
}

TEST(NeighborTableTest, EvictWorstUsesOrdering) {
  Table t{3};
  (void)t.insert(NodeId{1}, Payload{10});
  (void)t.insert(NodeId{2}, Payload{99});
  (void)t.insert(NodeId{3}, Payload{50});
  const auto worse = [](const Table::Entry& a, const Table::Entry& b) {
    return b.data.value > a.data.value;  // bigger value = worse
  };
  EXPECT_TRUE(t.evict_worst_unpinned(worse));
  EXPECT_EQ(t.find(NodeId{2}), nullptr);
  EXPECT_EQ(t.size(), 2u);
}

TEST(NeighborTableTest, EvictWorstRespectsPin) {
  Table t{3};
  (void)t.insert(NodeId{1}, Payload{10});
  (void)t.insert(NodeId{2}, Payload{99});
  EXPECT_TRUE(t.pin(NodeId{2}));
  const auto worse = [](const Table::Entry& a, const Table::Entry& b) {
    return b.data.value > a.data.value;
  };
  EXPECT_TRUE(t.evict_worst_unpinned(worse));
  EXPECT_NE(t.find(NodeId{2}), nullptr);
  EXPECT_EQ(t.find(NodeId{1}), nullptr);
}

TEST(NeighborTableTest, ClearPinsUnpinsEverything) {
  sim::Rng rng{3};
  Table t{2};
  (void)t.insert(NodeId{1});
  (void)t.insert(NodeId{2});
  (void)t.pin(NodeId{1});
  (void)t.pin(NodeId{2});
  t.clear_pins();
  EXPECT_TRUE(t.evict_random_unpinned(rng));
  EXPECT_EQ(t.size(), 1u);
}

TEST(NeighborTableTest, RemoveAbsentIsFalse) {
  Table t{2};
  EXPECT_FALSE(t.remove(NodeId{42}));
}

TEST(PacketPhyInfoTest, Defaults) {
  PacketPhyInfo info;
  EXPECT_FALSE(info.white);
  EXPECT_EQ(info.lqi, 0);
}

// ---- one table, traced the same way by every estimator --------------------

/// Records each table-* event as "<kind>/<arg2>" (arg2 is the
/// EvictReason on evictions and 0 otherwise).
struct TableEventSink final : sim::TelemetrySink {
  std::vector<std::string> table_events;
  void on_event(const sim::TelemetryEvent& event) override {
    const std::string kind{sim::event_kind_name(event.kind)};
    if (kind.starts_with("table-")) {
      table_events.push_back(kind + "/" + std::to_string(event.arg2));
    }
  }
};

struct EstimatorCase {
  std::string name;
  /// A 3-entry estimator at node `self` whose full table always admits.
  std::function<std::unique_ptr<LinkEstimator>(NodeId self)> make;
  /// The reason its full table gives for replacing an entry.
  sim::EvictReason replacement;
};

void PrintTo(const EstimatorCase& c, std::ostream* os) { *os << c.name; }

class TableEstimatorTraceTest
    : public ::testing::TestWithParam<EstimatorCase> {};

TEST_P(TableEstimatorTraceTest, EveryEstimatorTracesTableChangesAlike) {
  const EstimatorCase& c = GetParam();
  sim::TelemetryContext telemetry;
  TableEventSink sink;
  telemetry.set_sink(&sink);
  const auto est = c.make(NodeId{0});
  LinkEstimator& e = *est;
  e.set_telemetry(&telemetry, NodeId{0});

  const auto beacon_from = [&](std::uint16_t id) {
    const auto sender = c.make(NodeId{id});
    const std::vector<std::uint8_t> payload{7};
    const auto wire = sender->wrap_beacon(payload);
    ASSERT_TRUE(e.unwrap_beacon(NodeId{id}, wire, {.white = true, .lqi = 100})
                    .has_value());
  };

  beacon_from(1);
  beacon_from(2);
  EXPECT_TRUE(e.pin(NodeId{1}));
  EXPECT_FALSE(e.remove(NodeId{1})) << "a pinned entry refuses removal";
  e.unpin(NodeId{1});
  EXPECT_TRUE(e.remove(NodeId{1}));
  beacon_from(3);
  beacon_from(4);
  ASSERT_EQ(e.neighbors().size(), 3u);
  beacon_from(5);  // full table: one entry makes way
  EXPECT_EQ(e.neighbors().size(), 3u);
  telemetry.set_sink(nullptr);

  const auto evict = [](sim::EvictReason r) {
    return "table-evict/" + std::to_string(static_cast<std::uint16_t>(r));
  };
  const std::vector<std::string> expected{
      "table-insert/0",
      "table-insert/0",
      "table-pin/0",
      evict(sim::EvictReason::kRefusedPinned),
      "table-unpin/0",
      evict(sim::EvictReason::kNetworkRemove),
      "table-insert/0",
      "table-insert/0",
      evict(c.replacement),
      "table-insert/0",
  };
  EXPECT_EQ(sink.table_events, expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllEstimators, TableEstimatorTraceTest,
    ::testing::Values(
        EstimatorCase{"FourBit",
                      [](NodeId) -> std::unique_ptr<LinkEstimator> {
                        core::FourBitConfig cfg;
                        cfg.table_capacity = 3;
                        cfg.insertion = InsertionPolicy::kProbabilistic;
                        cfg.probabilistic_insert_p = 1.0;
                        return std::make_unique<core::FourBitEstimator>(
                            cfg, sim::Rng{1});
                      },
                      sim::EvictReason::kProbabilistic},
        EstimatorCase{"BroadcastEtx",
                      [](NodeId self) -> std::unique_ptr<LinkEstimator> {
                        estimators::BroadcastEtxConfig cfg;
                        cfg.table_capacity = 3;
                        cfg.insertion = InsertionPolicy::kProbabilistic;
                        cfg.probabilistic_insert_p = 1.0;
                        return std::make_unique<
                            estimators::BroadcastEtxEstimator>(self, cfg,
                                                               sim::Rng{1});
                      },
                      sim::EvictReason::kProbabilistic},
        EstimatorCase{"Lqi",
                      [](NodeId) -> std::unique_ptr<LinkEstimator> {
                        estimators::LqiEstimatorConfig cfg;
                        cfg.table_capacity = 3;
                        return std::make_unique<estimators::LqiEstimator>(
                            cfg);
                      },
                      sim::EvictReason::kWorstLink}),
    [](const ::testing::TestParamInfo<EstimatorCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace fourbit::link
