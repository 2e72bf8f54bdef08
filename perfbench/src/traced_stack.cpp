#include "traced_stack.hpp"

#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "app/traffic.hpp"
#include "link/estimator.hpp"
#include "mac/csma.hpp"
#include "net/collection_node.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "runner/faults.hpp"
#include "runner/profile.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/metrics.hpp"

namespace perfbench {
namespace {

namespace runner = fourbit::runner;
namespace sim = fourbit::sim;
namespace phy = fourbit::phy;
namespace mac = fourbit::mac;
namespace link = fourbit::link;
namespace net = fourbit::net;
namespace app = fourbit::app;
namespace stats = fourbit::stats;
using fourbit::NodeId;

/// The span stack plus the seam counters of one trial.
class Tracer {
 public:
  Tracer(sim::TelemetryContext& telemetry, TraceReport& report)
      : report(report),
        freeze_(telemetry.phase_histogram(sim::ProfilePhase::kChannelFreeze)),
        kernel_(telemetry.phase_histogram(sim::ProfilePhase::kBatchKernel)) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::int64_t phase_ns() const {
    return static_cast<std::int64_t>(freeze_->sum + kernel_->sum);
  }

  /// Runs `f` inside a span of `seam`.
  template <class F>
  decltype(auto) span(Seam seam, F&& f) {
    spans.enter(seam, now_ns(), phase_ns());
    const Close close{this};
    return f();
  }

  TraceReport& report;
  SpanStack spans;

 private:
  struct Close {
    Tracer* tracer;
    ~Close() { tracer->spans.exit(now_ns(), tracer->phase_ns()); }
  };

  const sim::Histogram* freeze_;
  const sim::Histogram* kernel_;
};

/// mac::Mac decorator: times net -> MAC sends and the MAC -> net
/// upcalls (rx, snoop, send-done).
class TracedMac final : public mac::Mac {
 public:
  TracedMac(mac::Mac& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] NodeId id() const override { return inner_.id(); }

  void set_rx_handler(RxHandler h) override {
    inner_.set_rx_handler(wrap_rx(std::move(h)));
  }
  void set_snoop_handler(RxHandler h) override {
    inner_.set_snoop_handler(wrap_rx(std::move(h)));
  }

  void send(NodeId dst, std::span<const std::uint8_t> payload,
            SendCallback done) override {
    ++tracer_.report.mac_sends;
    SendCallback traced;
    if (done) {
      traced = [&tracer = tracer_, done = std::move(done)](
                   const mac::TxResult& result) {
        tracer.span(Seam::kNetSendDone, [&] { done(result); });
      };
    }
    tracer_.span(Seam::kMacSend,
                 [&] { inner_.send(dst, payload, std::move(traced)); });
  }

  [[nodiscard]] std::size_t queue_depth() const override {
    return inner_.queue_depth();
  }
  void reset() override { inner_.reset(); }
  void restart() override { inner_.restart(); }

 private:
  RxHandler wrap_rx(RxHandler h) {
    if (!h) return h;
    return [&tracer = tracer_, h = std::move(h)](
               NodeId src, std::uint8_t dsn,
               std::span<const std::uint8_t> payload,
               const phy::RxInfo& info) {
      ++tracer.report.rx_upcalls;
      tracer.span(Seam::kNetRx, [&] { h(src, dsn, payload, info); });
    };
  }

  mac::Mac& inner_;
  Tracer& tracer_;
};

/// link::CompareProvider decorator: times estimator -> net compare-bit
/// queries.
class TracedCompare final : public link::CompareProvider {
 public:
  explicit TracedCompare(Tracer& tracer) : tracer_(tracer) {}

  [[nodiscard]] bool compare_bit(
      NodeId candidate, std::span<const std::uint8_t> payload) override {
    ++tracer_.report.compare_calls;
    return tracer_.span(Seam::kNetCompare, [&] {
      return inner->compare_bit(candidate, payload);
    });
  }

  link::CompareProvider* inner = nullptr;

 private:
  Tracer& tracer_;
};

/// link::LinkEstimator decorator: times every call from the net layer.
class TracedEstimator final : public link::LinkEstimator {
 public:
  TracedEstimator(std::unique_ptr<link::LinkEstimator> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer), compare_(tracer) {}

  [[nodiscard]] std::vector<std::uint8_t> wrap_beacon(
      std::span<const std::uint8_t> payload) override {
    ++tracer_.report.wrap_calls;
    return tracer_.span(Seam::kEstimator,
                        [&] { return inner_->wrap_beacon(payload); });
  }

  [[nodiscard]] std::optional<std::vector<std::uint8_t>> unwrap_beacon(
      NodeId from, std::span<const std::uint8_t> bytes,
      const link::PacketPhyInfo& info) override {
    ++tracer_.report.unwrap_calls;
    return tracer_.span(Seam::kEstimator, [&] {
      return inner_->unwrap_beacon(from, bytes, info);
    });
  }

  void on_unicast_result(NodeId to, bool acked) override {
    ++tracer_.report.unicast_results;
    if (acked) ++tracer_.report.unicast_acked;
    tracer_.span(Seam::kEstimator,
                 [&] { inner_->on_unicast_result(to, acked); });
  }

  void on_data_rx(NodeId from, const link::PacketPhyInfo& info) override {
    tracer_.span(Seam::kEstimator, [&] { inner_->on_data_rx(from, info); });
  }

  bool pin(NodeId n) override {
    return tracer_.span(Seam::kEstimator, [&] { return inner_->pin(n); });
  }
  void unpin(NodeId n) override {
    tracer_.span(Seam::kEstimator, [&] { inner_->unpin(n); });
  }
  void clear_pins() override {
    tracer_.span(Seam::kEstimator, [&] { inner_->clear_pins(); });
  }

  [[nodiscard]] std::optional<double> etx(NodeId n) const override {
    ++tracer_.report.etx_calls;
    return tracer_.span(Seam::kEstimator, [&] { return inner_->etx(n); });
  }
  [[nodiscard]] std::vector<NodeId> neighbors() const override {
    return tracer_.span(Seam::kEstimator,
                        [&] { return inner_->neighbors(); });
  }
  [[nodiscard]] std::vector<NodeId> pinned() const override {
    return tracer_.span(Seam::kEstimator, [&] { return inner_->pinned(); });
  }
  [[nodiscard]] std::size_t table_capacity() const override {
    return inner_->table_capacity();
  }

  bool remove(NodeId n) override {
    return tracer_.span(Seam::kEstimator, [&] { return inner_->remove(n); });
  }

  void set_compare_provider(link::CompareProvider* provider) override {
    compare_.inner = provider;
    inner_->set_compare_provider(provider != nullptr ? &compare_ : nullptr);
  }
  void set_telemetry(sim::TelemetryContext* telemetry, NodeId self) override {
    inner_->set_telemetry(telemetry, self);
  }
  void reset() override {
    tracer_.span(Seam::kEstimator, [&] { inner_->reset(); });
  }

 private:
  std::unique_ptr<link::LinkEstimator> inner_;
  Tracer& tracer_;
  TracedCompare compare_;
};

/// runner::Network's assembly (no LPL) with the decorators spliced in
/// between each CollectionNode and its MAC and estimator. The RNG forks
/// and construction order are runner::Network's, so the two build
/// identical networks.
class TracedNetwork {
 public:
  TracedNetwork(sim::Simulator& sim, const fourbit::topology::Testbed& testbed,
                const runner::ExperimentConfig& config,
                stats::Metrics* metrics, Tracer& tracer)
      : sim_(sim), metrics_(metrics), root_(testbed.topology.root) {
    sim::Rng rng{config.seed};
    std::unique_ptr<phy::InterferenceModel> interference;
    if (testbed.environment.burst_interference) {
      auto bursts = testbed.environment.bursts;
      bursts.exempt = testbed.topology.root;
      interference = std::make_unique<phy::GilbertElliottInterference>(
          bursts, rng.fork("bursts"));
    } else {
      interference = std::make_unique<phy::NullInterference>();
    }
    channel_ = std::make_unique<phy::Channel>(
        sim, testbed.environment.phy, testbed.environment.propagation,
        std::move(interference), rng.fork("channel"));

    const net::CollectionConfig net_cfg =
        config.collection_override.value_or(
            runner::make_collection_config(config.profile));

    sim::Rng hw_rng = rng.fork("hardware");
    for (std::size_t i = 0; i < testbed.topology.nodes.size(); ++i) {
      const auto& placement = testbed.topology.nodes[i];
      if (placement.id == root_) root_index_ = i;
      const auto hw =
          phy::HardwareProfile::sample(testbed.environment.hardware, hw_rng);
      radios_.push_back(std::make_unique<phy::Radio>(
          *channel_, placement.id, placement.position, hw, config.tx_power));
      macs_.push_back(std::make_unique<mac::CsmaMac>(
          sim, *radios_.back(), mac::CsmaConfig{},
          rng.fork(placement.id.value()).fork("mac")));
      traced_macs_.push_back(
          std::make_unique<TracedMac>(*macs_.back(), tracer));
      auto estimator = std::make_unique<TracedEstimator>(
          runner::make_estimator(
              config.profile, placement.id, config.table_capacity,
              rng.fork(placement.id.value()).fork("estimator"),
              config.four_bit_override),
          tracer);
      nodes_.push_back(std::make_unique<net::CollectionNode>(
          sim, *traced_macs_.back(), std::move(estimator),
          placement.id == root_, net_cfg, metrics,
          rng.fork(placement.id.value()).fork("node")));
    }
  }

  TracedNetwork(const TracedNetwork&) = delete;
  TracedNetwork& operator=(const TracedNetwork&) = delete;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] net::CollectionNode& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] phy::Channel& channel() { return *channel_; }

  void start(sim::Duration boot_stagger, const app::TrafficConfig& traffic) {
    sim::Rng boot_rng{static_cast<std::uint64_t>(boot_stagger.us()) ^
                      0xB007B007ULL};
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const auto boot_at =
          sim_.now() + sim::Duration::from_seconds(
                           boot_rng.uniform(0.0, boot_stagger.seconds()));
      if (i == root_index_) {
        net::CollectionNode* root_node = nodes_[i].get();
        sim_.schedule_at(boot_at, [root_node] { root_node->boot(); });
        continue;
      }
      traffic_.push_back(std::make_unique<app::TrafficGenerator>(
          sim_, *nodes_[i], traffic,
          boot_rng.fork(nodes_[i]->id().value())));
      traffic_.back()->start(boot_at);
    }
  }

  [[nodiscard]] runner::TreeSnapshot tree_snapshot() const {
    std::unordered_map<NodeId, std::size_t> index;
    index.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      index.emplace(nodes_[i]->id(), i);
    }
    runner::TreeSnapshot snap;
    snap.depths.assign(nodes_.size(), -1);
    const int hop_cap = static_cast<int>(nodes_.size()) + 1;
    double depth_sum = 0.0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (i == root_index_) {
        snap.depths[i] = 0;
        continue;
      }
      ++snap.total;
      NodeId cursor = nodes_[i]->id();
      int depth = 0;
      while (depth < hop_cap) {
        const auto it = index.find(cursor);
        if (it == index.end()) break;
        const auto& routing = nodes_[it->second]->routing();
        if (routing.is_root()) {
          snap.depths[i] = depth;
          break;
        }
        if (!routing.has_route()) break;
        cursor = routing.parent();
        ++depth;
      }
      if (snap.depths[i] >= 0) {
        ++snap.routed;
        depth_sum += snap.depths[i];
      }
    }
    snap.mean_depth =
        snap.routed > 0 ? depth_sum / static_cast<double>(snap.routed) : 0.0;
    return snap;
  }

  [[nodiscard]] std::uint64_t total_parent_changes() const {
    std::uint64_t total = 0;
    for (const auto& n : nodes_) total += n->routing().parent_changes();
    return total;
  }
  [[nodiscard]] std::uint64_t total_parent_evictions() const {
    std::uint64_t total = 0;
    for (const auto& n : nodes_) total += n->routing().parent_evictions();
    return total;
  }

  // ---- fault control, as runner::Network ------------------------------

  [[nodiscard]] std::size_t index_of(NodeId id) const {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->id() == id) return i;
    }
    return nodes_.size();
  }
  void crash_node(std::size_t i) {
    if (i == root_index_ || nodes_[i]->crashed()) return;
    nodes_[i]->crash();
    radios_[i]->set_listening(false);
    if (metrics_ != nullptr) {
      metrics_->on_node_crashed(nodes_[i]->id(), sim_.now());
    }
  }
  void reboot_node(std::size_t i) {
    if (!nodes_[i]->crashed()) return;
    radios_[i]->set_listening(true);
    nodes_[i]->reboot();
    if (metrics_ != nullptr) {
      metrics_->on_node_rebooted(nodes_[i]->id(), sim_.now());
    }
  }
  [[nodiscard]] std::vector<std::size_t> root_children() const {
    std::vector<std::size_t> children;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (i == root_index_) continue;
      const auto& routing = nodes_[i]->routing();
      if (routing.has_route() && routing.parent() == root_) {
        children.push_back(i);
      }
    }
    return children;
  }

 private:
  sim::Simulator& sim_;
  stats::Metrics* metrics_;
  NodeId root_;
  std::size_t root_index_ = 0;
  std::unique_ptr<phy::Channel> channel_;
  std::vector<std::unique_ptr<phy::Radio>> radios_;
  std::vector<std::unique_ptr<mac::CsmaMac>> macs_;
  std::vector<std::unique_ptr<TracedMac>> traced_macs_;
  std::vector<std::unique_ptr<net::CollectionNode>> nodes_;
  std::vector<std::unique_ptr<app::TrafficGenerator>> traffic_;
};

/// runner::FaultRuntime's hooks, bound to the traced network.
class TracedFaults {
 public:
  TracedFaults(sim::Simulator& sim, TracedNetwork& network,
               stats::Metrics* metrics)
      : sim_(sim), network_(network), metrics_(metrics) {}

  TracedFaults(const TracedFaults&) = delete;
  TracedFaults& operator=(const TracedFaults&) = delete;

  void arm(sim::FaultPlan plan) {
    sim::FaultInjector::Hooks hooks;
    hooks.crash_node = [this](NodeId node) { on_crash(node); };
    hooks.reboot_node = [this](NodeId node) { on_reboot(node); };
    hooks.link_down = [this](NodeId a, NodeId b, double loss) {
      network_.channel().set_link_outage(a, b, loss);
    };
    hooks.link_up = [this](NodeId a, NodeId b) {
      network_.channel().clear_link_outage(a, b);
    };
    hooks.root_region = [this](std::size_t max_victims) {
      std::vector<NodeId> victims;
      for (const std::size_t i : network_.root_children()) {
        if (max_victims > 0 && victims.size() >= max_victims) break;
        victims.push_back(network_.node(i).id());
      }
      return victims;
    };
    injector_ = std::make_unique<sim::FaultInjector>(sim_, std::move(plan),
                                                     std::move(hooks));
    injector_->arm();
  }

  [[nodiscard]] const sim::FaultInjector* injector() const {
    return injector_.get();
  }

 private:
  void on_crash(NodeId node) {
    const std::size_t i = network_.index_of(node);
    if (i >= network_.size()) return;
    pre_crash_sizes_[i] = network_.node(i).estimator().neighbors().size();
    network_.crash_node(i);
  }
  void on_reboot(NodeId node) {
    const std::size_t i = network_.index_of(node);
    if (i >= network_.size()) return;
    network_.reboot_node(i);
    const auto it = pre_crash_sizes_.find(i);
    if (it == pre_crash_sizes_.end() || it->second == 0) return;
    poll_refill(i, it->second, sim_.now());
  }
  void poll_refill(std::size_t index, std::size_t pre_crash_size,
                   sim::Time rebooted_at) {
    if (network_.node(index).crashed()) return;
    const std::size_t have =
        network_.node(index).estimator().neighbors().size();
    if (have * 2 >= pre_crash_size) {
      if (metrics_ != nullptr) {
        metrics_->on_table_refill(network_.node(index).id(),
                                  sim_.now() - rebooted_at);
      }
      return;
    }
    sim_.schedule_in(sim::Duration::from_seconds(2.0),
                     [this, index, pre_crash_size, rebooted_at] {
                       poll_refill(index, pre_crash_size, rebooted_at);
                     });
  }

  sim::Simulator& sim_;
  TracedNetwork& network_;
  stats::Metrics* metrics_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::unordered_map<std::size_t, std::size_t> pre_crash_sizes_;
};

std::int64_t hist_ns(sim::TelemetryContext& telemetry,
                     sim::ProfilePhase phase) {
  return static_cast<std::int64_t>(telemetry.phase_histogram(phase)->sum);
}

}  // namespace

runner::ExperimentResult run_traced(const runner::ExperimentConfig& config,
                                    TraceReport& report) {
  if (config.lpl_wake_interval.us() != 0 || config.track_energy ||
      config.audit_invariants || !config.trace_path.empty() ||
      config.status != nullptr) {
    throw std::invalid_argument(
        "run_traced: LPL, energy, audit, trace export and status are not "
        "part of the traced assembly");
  }
  report = TraceReport{};
  const std::int64_t stack_begin = now_ns();

  sim::Simulator sim{config.sim};
  if (config.budget.limited()) sim.set_budget(config.budget);
  sim.telemetry().set_level(config.trace_level);
  sim.telemetry().set_profiling(true);
  Tracer tracer{sim.telemetry(), report};
  stats::Metrics metrics;

  TracedNetwork network{sim, config.testbed, config, &metrics, tracer};
  network.channel().set_tx_observer(
      [&report](NodeId, sim::Duration airtime, fourbit::PowerDbm) {
        report.airtime_s += airtime.seconds();
      });

  TracedFaults faults{sim, network, &metrics};
  sim::FaultPlan fault_plan = runner::build_fault_plan(
      config.faults, config.testbed.topology, config.seed);
  if (!fault_plan.empty()) {
    runner::register_outage_windows(fault_plan, metrics,
                                    sim::Time{} + config.duration);
    faults.arm(std::move(fault_plan));
  }

  network.start(config.boot_stagger, config.traffic);

  const auto sampling_start =
      config.boot_stagger + sim::Duration::from_seconds(60.0);
  sim::Timer depth_sampler{sim, [&] {
                             const auto snap = network.tree_snapshot();
                             if (snap.routed > 0) {
                               metrics.record_depth_sample(snap.mean_depth);
                             }
                           }};
  sim.schedule_in(sampling_start, [&] {
    depth_sampler.start_periodic(config.depth_sample_interval);
  });
  report.stack_ns = now_ns() - stack_begin;

  auto& telemetry = sim.telemetry();
  const std::int64_t dispatch0 =
      hist_ns(telemetry, sim::ProfilePhase::kEventDispatch);
  const std::int64_t freeze0 =
      hist_ns(telemetry, sim::ProfilePhase::kChannelFreeze);
  const std::int64_t kernel0 =
      hist_ns(telemetry, sim::ProfilePhase::kBatchKernel);
  const std::int64_t run_begin = now_ns();
  sim.run_for(config.duration);
  report.run_ns = now_ns() - run_begin;
  depth_sampler.stop();

  report.dispatch_ns =
      hist_ns(telemetry, sim::ProfilePhase::kEventDispatch) - dispatch0;
  report.freeze_ns =
      hist_ns(telemetry, sim::ProfilePhase::kChannelFreeze) - freeze0;
  report.kernel_ns =
      hist_ns(telemetry, sim::ProfilePhase::kBatchKernel) - kernel0;
  for (std::size_t s = 0; s < kSeamCount; ++s) {
    report.self_ns[s] = tracer.spans.self_ns(static_cast<Seam>(s));
  }
  report.split = split_run(tracer.spans, report.run_ns, report.dispatch_ns,
                           report.freeze_ns + report.kernel_ns);
  report.min_self_ns = tracer.spans.min_self_ns();
  report.events = sim.events_executed();
  report.freezes =
      telemetry.phase_histogram(sim::ProfilePhase::kChannelFreeze)->count;
  report.kernel_calls =
      telemetry.phase_histogram(sim::ProfilePhase::kBatchKernel)->count;

  runner::ExperimentResult result;
  result.cost = metrics.cost();
  result.delivery_ratio = metrics.delivery_ratio();
  result.mean_depth = metrics.average_depth();
  result.per_node_delivery = metrics.per_node_delivery();
  result.generated = metrics.generated_total();
  result.delivered = metrics.delivered_unique_total();
  result.data_tx = metrics.data_tx_total();
  result.beacon_tx = metrics.beacon_tx_total();
  result.radio_frames = network.channel().frames_transmitted();
  result.retx_drops = metrics.retx_drops();
  result.queue_drops = metrics.queue_drops();
  result.duplicates = metrics.duplicate_rx();
  result.parent_changes = network.total_parent_changes();
  result.final_tree = network.tree_snapshot();
  result.node_crashes = metrics.node_crashes();
  result.node_reboots = metrics.node_reboots();
  if (faults.injector() != nullptr) {
    result.link_outages = faults.injector()->outages_executed();
  }
  result.route_losses = metrics.route_losses();
  result.parent_evictions = network.total_parent_evictions();
  result.pin_refusals = metrics.pin_refusals();
  result.mean_time_to_reroute_s = metrics.mean_time_to_reroute_s();
  result.max_time_to_reroute_s = metrics.max_time_to_reroute_s();
  result.mean_time_to_first_route_s = metrics.mean_time_to_first_route_s();
  result.mean_table_refill_s = metrics.mean_table_refill_s();
  result.generated_during_outage = metrics.generated_during_outage();
  result.generated_post_outage = metrics.generated_post_outage();
  result.delivery_during_outage = metrics.delivery_during_outage();
  result.delivery_post_outage = metrics.delivery_post_outage();
  result.arena_bytes = sim.arena().bytes_reserved();
  result.eq_resizes = sim.queue_resizes();

  report.eq_resizes = result.eq_resizes;
  report.arena_bytes = result.arena_bytes;
  report.frames_tx = result.radio_frames;
  if (tracer.spans.depth() != 0) {
    throw std::logic_error("run_traced: a span was left open");
  }
  return result;
}

}  // namespace perfbench
