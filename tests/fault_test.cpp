// Tests of the fault-injection subsystem: plan construction (seeded,
// deterministic), the injector's schedule execution, channel link
// outages, node crash/reboot through the full stack, and the recovery
// behaviour the paper's robustness story depends on — a crashed pinned
// parent must be unpinned, evicted and routed around.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/experiment.hpp"
#include "runner/faults.hpp"
#include "runner/network.hpp"
#include "runner/supervisor.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"
#include "topology/topology.hpp"

namespace fourbit {
namespace {

sim::Time at_s(double s) {
  return sim::Time::from_us(static_cast<std::int64_t>(s * 1e6));
}

// ---- plan construction ---------------------------------------------------

runner::FaultSpec crash_spec(std::size_t crashes) {
  runner::FaultSpec spec;
  spec.node_crashes = crashes;
  spec.window_start = at_s(100.0);
  spec.window_end = at_s(200.0);
  return spec;
}

TEST(FaultPlanTest, SameSeedSamePlan) {
  const auto topo = topology::line(20, 10.0);
  const auto spec = crash_spec(5);
  const auto a = runner::build_fault_plan(spec, topo, 42);
  const auto b = runner::build_fault_plan(spec, topo, 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].node, b.events[i].node);
    EXPECT_EQ(a.events[i].at.us(), b.events[i].at.us());
  }
}

TEST(FaultPlanTest, DifferentSeedsDifferentPlans) {
  const auto topo = topology::line(20, 10.0);
  const auto spec = crash_spec(5);
  const auto a = runner::build_fault_plan(spec, topo, 42);
  const auto b = runner::build_fault_plan(spec, topo, 43);
  bool differs = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].node != b.events[i].node ||
        a.events[i].at.us() != b.events[i].at.us()) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, VictimsDistinctNonRootInsideWindow) {
  const auto topo = topology::line(10, 10.0);
  const auto spec = crash_spec(6);
  const auto plan = runner::build_fault_plan(spec, topo, 7);
  ASSERT_EQ(plan.events.size(), 6u);
  std::set<NodeId> victims;
  for (const auto& event : plan.events) {
    EXPECT_EQ(event.kind, sim::FaultKind::kNodeCrash);
    EXPECT_NE(event.node, topo.root);
    EXPECT_TRUE(victims.insert(event.node).second) << "victim repeated";
    EXPECT_GE(event.at.us(), spec.window_start.us());
    EXPECT_LT(event.at.us(), spec.window_end.us());
  }
  // Sorted by fire time, and never more victims than non-root nodes.
  EXPECT_TRUE(std::is_sorted(
      plan.events.begin(), plan.events.end(),
      [](const auto& x, const auto& y) { return x.at.us() < y.at.us(); }));
  const auto capped =
      runner::build_fault_plan(crash_spec(100), topo, 7);
  EXPECT_EQ(capped.events.size(), topo.size() - 1);
}

TEST(FaultPlanTest, LinkOutagePairsNearestNeighbors) {
  const auto topo = topology::line(10, 10.0);
  runner::FaultSpec spec;
  spec.link_outages = 3;
  spec.outage_loss = 0.8;
  spec.window_start = at_s(100.0);
  spec.window_end = at_s(200.0);
  const auto plan = runner::build_fault_plan(spec, topo, 11);
  ASSERT_EQ(plan.events.size(), 3u);
  for (const auto& event : plan.events) {
    EXPECT_EQ(event.kind, sim::FaultKind::kLinkOutage);
    EXPECT_NE(event.node, event.peer);
    // On a uniform line the nearest neighbor is one position over.
    EXPECT_EQ(std::abs(static_cast<int>(event.node.value()) -
                       static_cast<int>(event.peer.value())),
              1);
    EXPECT_DOUBLE_EQ(event.loss, 0.8);
  }
}

TEST(FaultPlanTest, DisabledSpecBuildsEmptyPlan) {
  const auto topo = topology::line(5, 10.0);
  EXPECT_FALSE(runner::FaultSpec{}.enabled());
  EXPECT_TRUE(
      runner::build_fault_plan(runner::FaultSpec{}, topo, 1).empty());
}

// ---- injector schedule execution -----------------------------------------

TEST(FaultInjectorTest, CrashAndRebootFireAtScheduledTimes) {
  sim::Simulator sim;
  sim::FaultPlan plan;
  sim::FaultEvent event;
  event.kind = sim::FaultKind::kNodeCrash;
  event.at = at_s(10.0);
  event.duration = sim::Duration::from_seconds(5.0);
  event.node = NodeId{3};
  plan.events.push_back(event);

  std::vector<std::pair<NodeId, double>> crashes, reboots;
  sim::FaultInjector::Hooks hooks;
  hooks.crash_node = [&](NodeId n) {
    crashes.emplace_back(n, sim.now().seconds());
  };
  hooks.reboot_node = [&](NodeId n) {
    reboots.emplace_back(n, sim.now().seconds());
  };
  sim::FaultInjector injector{sim, std::move(plan), std::move(hooks)};
  injector.arm();
  sim.run_for(sim::Duration::from_seconds(30.0));

  ASSERT_EQ(crashes.size(), 1u);
  ASSERT_EQ(reboots.size(), 1u);
  EXPECT_EQ(crashes[0].first, NodeId{3});
  EXPECT_DOUBLE_EQ(crashes[0].second, 10.0);
  EXPECT_EQ(reboots[0].first, NodeId{3});
  EXPECT_DOUBLE_EQ(reboots[0].second, 15.0);
  EXPECT_EQ(injector.crashes_executed(), 1u);
  EXPECT_EQ(injector.reboots_executed(), 1u);
}

TEST(FaultInjectorTest, PermanentCrashNeverReboots) {
  sim::Simulator sim;
  sim::FaultPlan plan;
  sim::FaultEvent event;
  event.kind = sim::FaultKind::kNodeCrash;
  event.at = at_s(1.0);
  event.duration = sim::Duration::from_us(0);  // permanent
  event.node = NodeId{2};
  plan.events.push_back(event);

  int reboots = 0;
  sim::FaultInjector::Hooks hooks;
  hooks.crash_node = [](NodeId) {};
  hooks.reboot_node = [&](NodeId) { ++reboots; };
  sim::FaultInjector injector{sim, std::move(plan), std::move(hooks)};
  injector.arm();
  sim.run_for(sim::Duration::from_minutes(10.0));
  EXPECT_EQ(injector.crashes_executed(), 1u);
  EXPECT_EQ(reboots, 0);
}

TEST(FaultInjectorTest, LinkOutageRaisesAndClears) {
  sim::Simulator sim;
  sim::FaultPlan plan;
  sim::FaultEvent event;
  event.kind = sim::FaultKind::kLinkOutage;
  event.at = at_s(5.0);
  event.duration = sim::Duration::from_seconds(10.0);
  event.node = NodeId{1};
  event.peer = NodeId{2};
  event.loss = 1.0;
  plan.events.push_back(event);

  std::vector<double> downs, ups;
  sim::FaultInjector::Hooks hooks;
  hooks.link_down = [&](NodeId, NodeId, double) {
    downs.push_back(sim.now().seconds());
  };
  hooks.link_up = [&](NodeId, NodeId) { ups.push_back(sim.now().seconds()); };
  sim::FaultInjector injector{sim, std::move(plan), std::move(hooks)};
  injector.arm();
  sim.run_for(sim::Duration::from_seconds(60.0));
  ASSERT_EQ(downs.size(), 1u);
  ASSERT_EQ(ups.size(), 1u);
  EXPECT_DOUBLE_EQ(downs[0], 5.0);
  EXPECT_DOUBLE_EQ(ups[0], 15.0);
  EXPECT_EQ(injector.outages_executed(), 1u);
}

// ---- full-stack crash / outage behaviour ---------------------------------

/// A benign, deterministic radio environment (no shadowing, no bursts).
topology::Environment clean_environment() {
  topology::Environment env;
  env.propagation.reference_loss = Decibels{37.0};
  env.propagation.exponent = 4.0;
  env.propagation.shadowing_sigma_db = 0.0;
  env.propagation.asymmetry_sigma_db = 0.0;
  env.hardware.tx_offset_sigma_db = 0.0;
  env.hardware.noise_figure_sigma_db = 0.0;
  env.burst_interference = false;
  return env;
}

topology::Testbed line_testbed(std::size_t n, double spacing) {
  topology::Testbed tb;
  tb.topology = topology::line(n, spacing);
  tb.environment = clean_environment();
  return tb;
}

TEST(FaultNetworkTest, CrashSilencesNodeRebootRestores) {
  sim::Simulator sim;
  stats::Metrics metrics;
  runner::Network::Options options;
  options.seed = 5;
  runner::Network network{sim, line_testbed(3, 30.0), std::move(options),
                          &metrics};
  app::TrafficConfig traffic;
  traffic.period = sim::Duration::from_seconds(5.0);
  network.start(sim::Duration::from_seconds(5.0), traffic);
  sim.run_for(sim::Duration::from_seconds(60.0));
  ASSERT_TRUE(network.node(1).routing().has_route());

  network.crash_node(1);
  EXPECT_TRUE(network.node(1).crashed());
  EXPECT_FALSE(network.radio(1).listening());
  EXPECT_FALSE(network.node(1).routing().has_route());
  EXPECT_TRUE(network.node(1).estimator().neighbors().empty());
  EXPECT_FALSE(network.node(1).send(std::vector<std::uint8_t>{1}))
      << "a crashed node cannot originate traffic";
  EXPECT_EQ(metrics.node_crashes(), 1u);

  network.reboot_node(1);
  EXPECT_FALSE(network.node(1).crashed());
  EXPECT_TRUE(network.radio(1).listening());
  EXPECT_EQ(metrics.node_reboots(), 1u);
  sim.run_for(sim::Duration::from_seconds(120.0));
  EXPECT_TRUE(network.node(1).routing().has_route())
      << "a rebooted node must reconverge";
}

TEST(FaultNetworkTest, RootCannotCrash) {
  sim::Simulator sim;
  stats::Metrics metrics;
  runner::Network::Options options;
  runner::Network network{sim, line_testbed(2, 10.0), std::move(options),
                          &metrics};
  network.crash_node(network.root_index());
  EXPECT_FALSE(network.node(network.root_index()).crashed());
  EXPECT_EQ(metrics.node_crashes(), 0u);
}

TEST(FaultNetworkTest, ChannelOutageBlacksOutLink) {
  sim::Simulator sim;
  stats::Metrics metrics;
  runner::Network::Options options;
  options.seed = 9;
  runner::Network network{sim, line_testbed(2, 10.0), std::move(options),
                          &metrics};
  app::TrafficConfig traffic;
  traffic.period = sim::Duration::from_seconds(2.0);
  network.start(sim::Duration::from_seconds(5.0), traffic);
  sim.run_for(sim::Duration::from_seconds(60.0));
  const auto delivered_before = metrics.delivered_unique_total();
  EXPECT_GT(delivered_before, 0u);

  network.channel().set_link_outage(network.node(0).id(),
                                    network.node(1).id(), 1.0);
  EXPECT_EQ(network.channel().active_link_outages(), 1u);
  sim.run_for(sim::Duration::from_seconds(60.0));
  EXPECT_EQ(metrics.delivered_unique_total(), delivered_before)
      << "a total blackout must deliver nothing";

  network.channel().clear_link_outage(network.node(1).id(),
                                      network.node(0).id());  // symmetric
  EXPECT_EQ(network.channel().active_link_outages(), 0u);
  sim.run_for(sim::Duration::from_seconds(60.0));
  EXPECT_GT(metrics.delivered_unique_total(), delivered_before)
      << "delivery must resume once the outage clears";
}

// ---- the headline recovery scenario --------------------------------------
//
//        A (relay, better placed)
//   R  <                          > L
//        B (relay, slightly worse)
//
// L pins its parent A. A crashes and stays down. L must notice via the
// datapath (burned retransmission budgets), unpin and evict A, adopt B,
// and deliver >90% of the packets generated after the outage window.

TEST(FaultNetworkTest, CrashedPinnedParentEvictedAndRoutedAround) {
  topology::Testbed tb;
  tb.environment = clean_environment();
  tb.topology.root = NodeId{0};
  tb.topology.nodes = {
      {NodeId{0}, Position{0.0, 0.0}},     // root
      {NodeId{1}, Position{28.0, 4.0}},    // relay A: L's first choice
      {NodeId{2}, Position{28.0, -12.0}},  // relay B: fallback
      {NodeId{3}, Position{56.0, 0.0}},    // leaf L (root is out of reach)
  };

  sim::Simulator sim;
  stats::Metrics metrics;
  runner::Network::Options options;
  options.seed = 3;
  runner::Network network{sim, tb, std::move(options), &metrics};
  runner::FaultRuntime fault_runtime{sim, network, &metrics};

  app::TrafficConfig traffic;
  traffic.period = sim::Duration::from_seconds(5.0);
  network.start(sim::Duration::from_seconds(5.0), traffic);
  sim.run_for(sim::Duration::from_seconds(170.0));

  // Pre-crash shape: L routes (and has pinned) one of the two relays.
  const NodeId victim = network.node(3).routing().parent();
  ASSERT_TRUE(victim == NodeId{1} || victim == NodeId{2});
  const NodeId survivor = victim == NodeId{1} ? NodeId{2} : NodeId{1};

  // Crash L's actual parent, permanently, ten seconds from now.
  sim::FaultPlan plan;
  sim::FaultEvent event;
  event.kind = sim::FaultKind::kNodeCrash;
  event.at = at_s(180.0);
  event.duration = sim::Duration::from_us(0);  // the relay stays dead
  event.node = victim;
  plan.events.push_back(event);
  // The outage "window" of a permanent crash: from the crash until the
  // network has had a fair chance to heal. Packets after it must flow.
  runner::register_outage_windows(plan, metrics, at_s(300.0));
  fault_runtime.arm(std::move(plan));

  sim.run_for(sim::Duration::from_minutes(10.0) -
              sim::Duration::from_seconds(170.0));

  // L routed around the dead relay. With a live alternative in the
  // table this happens through the ack bit alone: failed unicasts
  // balloon the dead link's ETX until the survivor wins, and the
  // ordinary parent switch releases the pin (eviction is the backstop
  // for when no alternative exists — see the chain test below).
  EXPECT_EQ(network.node(3).routing().parent(), survivor)
      << "L must reroute through the surviving relay";
  EXPECT_TRUE(network.node(3).estimator().remove(victim))
      << "the dead relay must no longer be pinned in L's table";
  // And the network heals: packets generated after the outage window
  // overwhelmingly arrive.
  EXPECT_GT(metrics.generated_post_outage(), 20u);
  EXPECT_GT(metrics.delivery_post_outage(), 0.9);
}

// The eviction backstop: in a chain R -- A -- L, node A is L's ONLY way
// home. When A crashes, no beacon ever un-wedges L — only the datapath
// can. L must burn its retransmission budgets, refuse-then-unpin the
// dead parent, evict it, and go routeless until A reboots.

TEST(FaultNetworkTest, SoleParentCrashForcesEvictionAndRecovery) {
  sim::Simulator sim;
  stats::Metrics metrics;
  runner::Network::Options options;
  options.seed = 7;
  // 30 m hops: adjacent links are clean, 60 m (L to root) is undecodable.
  runner::Network network{sim, line_testbed(3, 30.0), std::move(options),
                          &metrics};
  runner::FaultRuntime fault_runtime{sim, network, &metrics};

  sim::FaultPlan plan;
  sim::FaultEvent event;
  event.kind = sim::FaultKind::kNodeCrash;
  event.at = at_s(180.0);
  event.duration = sim::Duration::from_seconds(60.0);
  event.node = NodeId{1};
  plan.events.push_back(event);
  runner::register_outage_windows(plan, metrics, at_s(600.0));
  fault_runtime.arm(std::move(plan));

  app::TrafficConfig traffic;
  traffic.period = sim::Duration::from_seconds(5.0);
  network.start(sim::Duration::from_seconds(5.0), traffic);
  sim.run_for(sim::Duration::from_minutes(10.0));

  // The wedge resolved through the eviction path: pin refused once,
  // then unpinned and removed, leaving L routeless until A rebooted.
  EXPECT_GE(network.total_parent_evictions(), 1u);
  EXPECT_GE(metrics.pin_refusals(), 1u);
  EXPECT_GE(metrics.route_losses(), 1u);
  // A's reboot restored the route: a completed reroute interval whose
  // length spans the back-dated wedge, not just the final beacon.
  EXPECT_GE(metrics.reroute_count(), 1u);
  EXPECT_GT(metrics.mean_time_to_reroute_s(), 10.0);
  // A's neighbor table refilled after its reboot.
  EXPECT_GE(metrics.table_refill_count(), 1u);
  EXPECT_EQ(network.node(2).routing().parent(), NodeId{1});
  EXPECT_GT(metrics.delivery_post_outage(), 0.9);
}

// ---- experiment / campaign plumbing --------------------------------------

TEST(FaultCampaignTest, FaultedExperimentPopulatesRecoveryFields) {
  runner::ExperimentConfig cfg;
  cfg.testbed = line_testbed(4, 30.0);
  cfg.profile = runner::Profile::kFourBit;
  cfg.duration = sim::Duration::from_minutes(8.0);
  cfg.traffic.period = sim::Duration::from_seconds(5.0);
  cfg.boot_stagger = sim::Duration::from_seconds(5.0);
  cfg.seed = 17;
  cfg.faults.node_crashes = 1;
  cfg.faults.crash_downtime = sim::Duration::from_seconds(90.0);
  cfg.faults.window_start = at_s(120.0);
  cfg.faults.window_end = at_s(240.0);
  const auto r = runner::run_experiment(cfg);
  EXPECT_EQ(r.node_crashes, 1u);
  EXPECT_EQ(r.node_reboots, 1u);
  EXPECT_GT(r.generated_during_outage, 0u);
  EXPECT_GT(r.generated_post_outage, 0u);
  EXPECT_GT(r.delivery_post_outage, 0.9);
  EXPECT_GT(r.mean_time_to_first_route_s, 0.0);
}

TEST(FaultCampaignTest, ThreadCountDoesNotChangeFaultedResults) {
  runner::ExperimentConfig base;
  base.testbed = line_testbed(5, 30.0);
  base.profile = runner::Profile::kFourBit;
  base.duration = sim::Duration::from_minutes(6.0);
  base.traffic.period = sim::Duration::from_seconds(5.0);
  base.boot_stagger = sim::Duration::from_seconds(5.0);
  base.seed = 23;
  base.faults.node_crashes = 2;
  base.faults.crash_downtime = sim::Duration::from_seconds(60.0);
  base.faults.link_outages = 1;
  base.faults.window_start = at_s(100.0);
  base.faults.window_end = at_s(200.0);
  const auto trials = runner::Campaign::seed_sweep(base, 4);

  std::vector<runner::ExperimentResult> a;
  for (const auto& trial : trials) a.push_back(runner::run_experiment(trial));
  runner::SupervisorOptions pooled;
  pooled.threads = 4;
  const auto report = runner::run_supervised(trials, pooled);
  ASSERT_TRUE(report.all_completed());
  const auto& b = report.results;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].generated, b[i].generated) << "trial " << i;
    EXPECT_EQ(a[i].delivered, b[i].delivered) << "trial " << i;
    EXPECT_EQ(a[i].data_tx, b[i].data_tx) << "trial " << i;
    EXPECT_EQ(a[i].node_crashes, b[i].node_crashes) << "trial " << i;
    EXPECT_EQ(a[i].node_reboots, b[i].node_reboots) << "trial " << i;
    EXPECT_EQ(a[i].route_losses, b[i].route_losses) << "trial " << i;
    EXPECT_DOUBLE_EQ(a[i].delivery_during_outage,
                     b[i].delivery_during_outage)
        << "trial " << i;
    EXPECT_DOUBLE_EQ(a[i].mean_time_to_reroute_s,
                     b[i].mean_time_to_reroute_s)
        << "trial " << i;
    EXPECT_DOUBLE_EQ(a[i].mean_table_refill_s, b[i].mean_table_refill_s)
        << "trial " << i;
  }
}

}  // namespace
}  // namespace fourbit
