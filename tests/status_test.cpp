// Tests of live campaign observability (runner/status.hpp): log2
// histograms and phase timers, the fourbit.status/1 snapshot codec and
// its junk rejection, stamp/publish helpers, the StatusBoard's settled
// totals and live views, the --status-* CLI surface, and end-to-end status
// streaming from supervised and multi-process campaigns — including the
// off-band guarantee that journal and trace bytes are identical with
// status on or off.
//
// This binary self-execs as its own workers for the multi-process
// tests: main() checks for the hidden --worker-fd flag and, when
// present, rebuilds the trial list from --st-* flags and enters
// run_worker with a scenario-driven run_trial override.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/byte_io.hpp"
#include "runner/campaign.hpp"
#include "runner/dispatch.hpp"
#include "runner/status.hpp"
#include "runner/supervisor.hpp"
#include "runner/transport.hpp"
#include "runner/worker.hpp"
#include "sim/rng.hpp"
#include "sim/telemetry.hpp"
#include "sim/time.hpp"
#include "topology/topology.hpp"

namespace fourbit::runner {
namespace {

// ---- shared scenario machinery (used by tests AND worker mode) --------

/// Deterministic fake result, a pure function of the seed.
ExperimentResult synthetic_result(std::uint64_t seed) {
  ExperimentResult r;
  r.cost = 1.0 + static_cast<double>(seed) * 0.25;
  r.delivery_ratio = 1.0 / (1.0 + static_cast<double>(seed % 7));
  r.mean_depth = static_cast<double>(seed % 5);
  r.per_node_delivery = {0.5, static_cast<double>(seed) * 0.01};
  r.generated = seed * 3;
  r.delivered = seed * 2;
  r.data_tx = seed + 11;
  r.parent_changes = seed % 3;
  r.final_tree.depths = {1, 2, static_cast<int>(seed % 4)};
  r.final_tree.mean_depth = 1.5;
  return r;
}

std::vector<ExperimentConfig> scenario_trials(std::size_t n,
                                              std::uint64_t base) {
  std::vector<ExperimentConfig> trials(n);
  for (std::size_t i = 0; i < n; ++i) trials[i].seed = base + i;
  return trials;
}

/// A small REAL simulation derived purely from the seed: exercises the
/// full engine so the registry carries real sim/ rows into the board.
ExperimentConfig real_trial(std::uint64_t seed) {
  sim::Rng rng{seed};
  ExperimentConfig cfg;
  cfg.testbed = topology::mirage(rng);
  cfg.testbed.topology.nodes.resize(12);
  cfg.duration = sim::Duration::from_minutes(1.0);
  cfg.seed = seed;
  return cfg;
}

struct Scenario {
  std::string kind = "clean";
  std::size_t index = 0;
};

Scenario parse_scenario(const std::string& text) {
  Scenario s;
  const auto at = text.find('@');
  if (at == std::string::npos) {
    s.kind = text;
  } else {
    s.kind = text.substr(0, at);
    s.index = static_cast<std::size_t>(
        std::strtoul(text.c_str() + at + 1, nullptr, 10));
  }
  return s;
}

std::vector<ExperimentConfig> real_trials(std::size_t n,
                                          std::uint64_t base) {
  std::vector<ExperimentConfig> trials;
  for (std::size_t i = 0; i < n; ++i) trials.push_back(real_trial(base + i));
  return trials;
}

/// Worker-side trial executor: paces trials so the 20 ms status cadence
/// in these tests catches the campaign mid-flight, and misbehaves per
/// the scenario ("segv@N" kills the worker on trial N). A real trial
/// runs the simulation first, and a doomed one then lingers so its
/// registry reaches the coordinator in a live view before the crash.
std::function<ExperimentResult(const ExperimentConfig&)> scenario_run_trial(
    Scenario scenario, bool real) {
  return [scenario, real](const ExperimentConfig& config) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const ExperimentResult result =
        real ? run_experiment(config) : synthetic_result(config.seed);
    const std::size_t index =
        config.trace_trial >= 0
            ? static_cast<std::size_t>(config.trace_trial)
            : static_cast<std::size_t>(-1);
    if (scenario.kind == "segv" && index == scenario.index) {
      if (real) std::this_thread::sleep_for(std::chrono::milliseconds(100));
      ::raise(SIGSEGV);
    }
    return result;
  };
}

}  // namespace

/// Worker-mode entry (called from main when --worker-fd is present).
[[noreturn]] void st_worker_main(int argc, char** argv, CampaignCli cli) {
  const Scenario scenario = parse_scenario(
      consume_flag(argc, argv, "--st-scenario").value_or("clean"));
  const std::size_t n = static_cast<std::size_t>(
      consume_uint_flag(argc, argv, "--st-trials").value_or(0));
  const std::uint64_t base =
      consume_uint_flag(argc, argv, "--st-seed").value_or(1);
  const bool real = consume_bool_flag(argc, argv, "--st-real");
  auto options = cli.supervisor_options();
  options.run_trial = scenario_run_trial(scenario, real);
  run_worker(real ? real_trials(n, base) : scenario_trials(n, base), cli,
             std::move(options));
}

namespace {

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.per_node_delivery, b.per_node_delivery);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_tx, b.data_tx);
}

std::string temp_path(const char* name) {
  return (std::filesystem::path{::testing::TempDir()} /
          (std::string{"fourbit_status_"} + name + "_" +
           std::to_string(::getpid())))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Not a JSON parser: a quote/escape-aware brace and bracket balance
/// check, which is exactly what catches torn writes, unescaped strings,
/// and half-rendered objects.
bool well_formed_json(const std::string& text) {
  if (text.empty() || text.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

const StatusCounter* find_counter(const StatusSnapshot& snap,
                                  const std::string& component,
                                  const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.component == component && c.name == name) return &c;
  }
  return nullptr;
}

const StatusGauge* find_gauge(const StatusSnapshot& snap,
                              const std::string& component,
                              const std::string& name) {
  for (const auto& g : snap.gauges) {
    if (g.component == component && g.name == name) return &g;
  }
  return nullptr;
}

const sim::Histogram* find_hist(const StatusSnapshot& snap,
                                const std::string& component,
                                const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.component == component && h.name == name) return &h.hist;
  }
  return nullptr;
}

// Whole metric tables, for comparing two campaigns' final snapshots.
using MetricKey = std::pair<std::string, std::string>;

std::map<MetricKey, std::uint64_t> counter_table(const StatusSnapshot& snap) {
  std::map<MetricKey, std::uint64_t> out;
  for (const auto& c : snap.counters) out[{c.component, c.name}] = c.value;
  return out;
}

std::map<MetricKey, double> gauge_table(const StatusSnapshot& snap) {
  std::map<MetricKey, double> out;
  for (const auto& g : snap.gauges) out[{g.component, g.name}] = g.value;
  return out;
}

std::map<MetricKey, std::uint64_t> hist_counts(const StatusSnapshot& snap) {
  std::map<MetricKey, std::uint64_t> out;
  for (const auto& h : snap.histograms) {
    out[{h.component, h.name}] = h.hist.count;
  }
  return out;
}

// ---- log2 histograms --------------------------------------------------

TEST(HistogramTest, BucketEdgesAndFloors) {
  EXPECT_EQ(sim::histogram_bucket(0), 0u);
  EXPECT_EQ(sim::histogram_bucket(1), 1u);
  EXPECT_EQ(sim::histogram_bucket(2), 2u);
  EXPECT_EQ(sim::histogram_bucket(3), 2u);
  EXPECT_EQ(sim::histogram_bucket(4), 3u);
  EXPECT_EQ(sim::histogram_bucket((std::uint64_t{1} << 62)), 63u);
  EXPECT_EQ(sim::histogram_bucket(~std::uint64_t{0}), 63u);
  EXPECT_EQ(sim::histogram_bucket_floor(0), 0u);
  EXPECT_EQ(sim::histogram_bucket_floor(1), 1u);
  EXPECT_EQ(sim::histogram_bucket_floor(5), 16u);
  // Every value lands in the bucket whose floor it is at or above.
  for (const std::uint64_t v : {0ull, 1ull, 7ull, 1000ull, 123456789ull}) {
    EXPECT_GE(v, sim::histogram_bucket_floor(sim::histogram_bucket(v)));
  }
}

TEST(HistogramTest, RecordMergeMeanQuantile) {
  sim::Histogram a;
  a.record(0);
  a.record(5);
  a.record(1000);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 1005u);
  EXPECT_EQ(a.bins[0], 1u);
  EXPECT_EQ(a.bins[sim::histogram_bucket(5)], 1u);
  EXPECT_EQ(a.bins[sim::histogram_bucket(1000)], 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 335.0);

  sim::Histogram b;
  b.record(5);
  b.merge(a);
  EXPECT_EQ(b.count, 4u);
  EXPECT_EQ(b.sum, 1010u);
  EXPECT_EQ(b.bins[sim::histogram_bucket(5)], 2u);

  // Quantiles are monotone in q and bounded by the data's bucket range.
  EXPECT_LE(a.quantile(0.10), a.quantile(0.50));
  EXPECT_LE(a.quantile(0.50), a.quantile(0.99));
  EXPECT_LE(a.quantile(0.99), 1024.0);  // upper edge of 1000's bucket
}

TEST(HistogramTest, EmptyQuantileAndMeanAreZero) {
  const sim::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

// ---- phase timers ------------------------------------------------------

TEST(PhaseTimerTest, DisabledRegistersNothing) {
  sim::TelemetryContext context;
  ASSERT_FALSE(context.profiling());
  {
    sim::PhaseTimer timer{context, sim::ProfilePhase::kEventDispatch};
  }
  // The off-band guarantee rests on this: no profiling, no registry
  // rows, so exported traces are byte-identical to a build without
  // timers in the code path.
  EXPECT_TRUE(context.histograms().empty());
}

TEST(PhaseTimerTest, EnabledRecordsIntoProfileHistogram) {
  sim::TelemetryContext context;
  context.set_profiling(true);
  {
    sim::PhaseTimer timer{context, sim::ProfilePhase::kBatchKernel};
  }
  {
    sim::PhaseTimer timer{context, sim::ProfilePhase::kBatchKernel};
  }
  ASSERT_EQ(context.histograms().size(), 1u);
  const auto& row = context.histograms().front();
  EXPECT_EQ(row.component, "profile");
  EXPECT_EQ(row.hist.count, 2u);
}

// ---- snapshot codec ----------------------------------------------------

StatusSnapshot sample_snapshot() {
  StatusSnapshot snap;
  snap.seq = 7;
  snap.total = 100;
  snap.done = 42;
  snap.failed = 3;
  snap.retried = 5;
  snap.in_flight = 9;
  snap.replayed = 11;
  snap.hard_crashes = 2;
  snap.worker_respawns = 4;
  snap.host_losses = 1;
  snap.lease_reassignments = 6;
  snap.elapsed_s = 12.5;
  snap.trials_per_s = 3.25;
  snap.eta_s = -1.0;
  StatusSource w;
  w.name = "w0";
  w.kind = StatusSource::Kind::kWorker;
  w.alive = true;
  w.done = 21;
  w.failed = 1;
  w.in_flight = 3;
  w.losses = 2;
  w.lease = "0-4,9";
  snap.sources.push_back(w);
  StatusSource h;
  h.name = "127.0.0.1:9001";
  h.kind = StatusSource::Kind::kHost;
  h.alive = false;
  h.retired = true;
  h.fruitless = 3;
  snap.sources.push_back(h);
  snap.counters.push_back(StatusCounter{"sim", "eq_resizes", 17});
  snap.gauges.push_back(StatusGauge{"sim", "arena_bytes", 1.5e6});
  StatusHistogram hist;
  hist.component = "runner";
  hist.name = "trial_wall_ms";
  hist.hist.record(0);
  hist.hist.record(5);
  hist.hist.record(1000);
  snap.histograms.push_back(hist);
  return snap;
}

TEST(StatusCodecTest, RoundTripsEveryField) {
  // The payload is the metric tables; lifecycle counts and sources are
  // the coordinator's own and do not travel.
  const StatusSnapshot snap = sample_snapshot();
  const auto payload = encode_status_snapshot(snap);
  const auto out = decode_status_snapshot(payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->done, 0u);
  EXPECT_TRUE(out->sources.empty());
  ASSERT_EQ(out->counters.size(), 1u);
  EXPECT_EQ(out->counters[0].component, "sim");
  EXPECT_EQ(out->counters[0].name, "eq_resizes");
  EXPECT_EQ(out->counters[0].value, 17u);
  ASSERT_EQ(out->gauges.size(), 1u);
  EXPECT_EQ(out->gauges[0].component, "sim");
  EXPECT_EQ(out->gauges[0].name, "arena_bytes");
  EXPECT_EQ(out->gauges[0].value, 1.5e6);
  ASSERT_EQ(out->histograms.size(), 1u);
  EXPECT_EQ(out->histograms[0].component, "runner");
  EXPECT_EQ(out->histograms[0].name, "trial_wall_ms");
  EXPECT_EQ(out->histograms[0].hist.count, 3u);
  EXPECT_EQ(out->histograms[0].hist.sum, 1005u);
  EXPECT_EQ(out->histograms[0].hist.bins, snap.histograms[0].hist.bins);
}

TEST(StatusCodecTest, RejectsBadVersion) {
  auto payload = encode_status_snapshot(sample_snapshot());
  payload[0] = 1;  // the retired layout with lifecycle counts and sources
  EXPECT_FALSE(decode_status_snapshot(payload).has_value());
}

TEST(StatusCodecTest, RejectsEveryTruncation) {
  const auto payload = encode_status_snapshot(sample_snapshot());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(decode_status_snapshot(
                     std::span<const std::uint8_t>{payload.data(), cut})
                     .has_value())
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(StatusCodecTest, RejectsTrailingBytes) {
  auto payload = encode_status_snapshot(sample_snapshot());
  payload.push_back(0);
  EXPECT_FALSE(decode_status_snapshot(payload).has_value());
}

TEST(StatusCodecTest, RejectsOversizedTables) {
  // An EMPTY snapshot is the version byte and three u32 table counts
  // (counters, gauges, histograms). Claiming 2^32-1 rows in any table
  // must be rejected up front, not chased into a multi-gigabyte loop.
  const auto empty = encode_status_snapshot(StatusSnapshot{});
  ASSERT_EQ(empty.size(), 13u);
  for (const std::size_t at : {1u, 5u, 9u}) {
    auto payload = empty;
    payload[at] = payload[at + 1] = payload[at + 2] = payload[at + 3] = 0xFF;
    EXPECT_FALSE(decode_status_snapshot(payload).has_value())
        << "table count at byte " << at;
  }
}

TEST(StatusCodecTest, RejectsOutOfRangeHistogramBin) {
  std::vector<std::uint8_t> payload;
  ByteWriter w{payload};
  w.u8(2);                                  // version
  w.u32(0);                                 // counters
  w.u32(0);                                 // gauges
  w.u32(1);                                 // one histogram...
  w.u16(0);                                 // empty component
  w.u16(0);                                 // empty name
  w.u64(1);                                 // count
  w.u64(1);                                 // sum
  w.u8(1);                                  // one occupied bin...
  w.u8(200);                                // ...at an impossible index
  w.u64(1);
  EXPECT_FALSE(decode_status_snapshot(payload).has_value());
}

TEST(StatusCodecTest, TruncatesOverlongStringsAtEncode) {
  // A pathological metric name must not make the payload undecodable:
  // encode caps the string, decode still works.
  StatusSnapshot snap;
  snap.counters.push_back(StatusCounter{"sim", std::string(2000, 'x'), 1});
  const auto out = decode_status_snapshot(encode_status_snapshot(snap));
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->counters.size(), 1u);
  EXPECT_EQ(out->counters[0].name.size(), 512u);
}

TEST(StatusCodecTest, RidesTheWorkerPipeFrame) {
  // The full path a worker's or host's live view travels: status codec
  // -> FT kStatus control frame -> CRC-framed socket -> TransportParser
  // -> status codec.
  const StatusSnapshot snap = sample_snapshot();
  ControlMessage message;
  message.kind = ControlKind::kStatus;
  message.text = status_payload(snap);
  const auto frame = encode_control_message(message);

  TransportParser parser;
  parser.feed(frame.data(), frame.size());
  const auto out = parser.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(parser.corrupt());
  ASSERT_EQ(out->type, TransportFrame::Type::kControl);
  ASSERT_EQ(out->control.kind, ControlKind::kStatus);
  const auto decoded = decode_status_snapshot(out->control.text);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->counters.size(), 1u);
  EXPECT_EQ(decoded->counters[0].value, 17u);
  ASSERT_EQ(decoded->histograms.size(), 1u);
  EXPECT_EQ(decoded->histograms[0].hist.bins, snap.histograms[0].hist.bins);
}

// ---- stamping ----------------------------------------------------------

TEST(StampStatusTest, RateCountsFreshSettledTrialsOnly) {
  StatusSnapshot snap;
  snap.done = 4;
  snap.failed = 1;
  snap.replayed = 2;  // replays didn't cost this run wall time
  stamp_status(snap, 9, 10.0, 10);
  EXPECT_EQ(snap.seq, 9u);
  EXPECT_EQ(snap.total, 10u);
  EXPECT_DOUBLE_EQ(snap.elapsed_s, 10.0);
  EXPECT_DOUBLE_EQ(snap.trials_per_s, 0.3);  // (5 settled - 2 replayed) / 10s
  EXPECT_NEAR(snap.eta_s, 5.0 / 0.3, 1e-9);
}

TEST(StampStatusTest, EtaIsUnknownWithoutRateAndZeroWhenDone) {
  StatusSnapshot idle;
  stamp_status(idle, 1, 5.0, 10);
  EXPECT_DOUBLE_EQ(idle.trials_per_s, 0.0);
  EXPECT_LT(idle.eta_s, 0.0);  // unknown, rendered as JSON null

  StatusSnapshot replay_only;
  replay_only.done = 5;
  replay_only.replayed = 7;  // more replays than settles: clamp, no rate
  stamp_status(replay_only, 2, 5.0, 10);
  EXPECT_DOUBLE_EQ(replay_only.trials_per_s, 0.0);
  EXPECT_LT(replay_only.eta_s, 0.0);

  StatusSnapshot finished;
  finished.done = 8;
  finished.failed = 2;  // failures settle the campaign too
  stamp_status(finished, 3, 5.0, 10);
  EXPECT_DOUBLE_EQ(finished.eta_s, 0.0);
}

// ---- JSON rendering and the atomic file publisher ----------------------

TEST(StatusJsonTest, WellFormedWithSchemaAndNullEta) {
  StatusSnapshot snap = sample_snapshot();
  snap.sources[0].name = "w\"0\\";  // must be escaped, not break the JSON
  const std::string json = status_json(snap);
  EXPECT_TRUE(well_formed_json(json)) << json;
  EXPECT_TRUE(json.ends_with("}\n"));
  EXPECT_NE(json.find("\"schema\":\"fourbit.status/1\""), std::string::npos);
  EXPECT_NE(json.find("\"eta_s\":null"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"lease\":\"0-4,9\""), std::string::npos);

  snap.eta_s = 42.0;
  const std::string with_eta = status_json(snap);
  EXPECT_NE(with_eta.find("\"eta_s\":42.0"), std::string::npos);
  EXPECT_EQ(with_eta.find("null"), std::string::npos);
}

TEST(WriteStatusFileTest, AtomicPublishLeavesNoTemp) {
  const std::string path = temp_path("atomic.json");
  ASSERT_TRUE(write_status_file(path, "{\"a\":1}\n"));
  EXPECT_EQ(slurp(path), "{\"a\":1}\n");
  ASSERT_TRUE(write_status_file(path, "{\"a\":2}\n"));  // overwrite
  EXPECT_EQ(slurp(path), "{\"a\":2}\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

// ---- StatusBoard -------------------------------------------------------

TEST(StatusBoardTest, LifecycleCounts) {
  StatusBoard board;
  board.trial_started(0);
  board.trial_started(1);
  StatusSnapshot snap;
  board.fill_snapshot(snap);
  EXPECT_EQ(snap.in_flight, 2u);

  board.attempt_reset(1);
  board.trial_settled(0, /*failed=*/false, 12);
  board.trial_settled(1, /*failed=*/true, 34);
  board.add_replayed(3);
  board.fill_snapshot(snap);
  EXPECT_EQ(snap.in_flight, 0u);
  EXPECT_EQ(snap.done, 4u);  // 1 fresh + 3 replayed
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.retried, 1u);
  EXPECT_EQ(snap.replayed, 3u);
  const auto* wall = find_hist(snap, "runner", "trial_wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 2u);
  EXPECT_EQ(wall->sum, 46u);
}

/// One-counter metrics table, as a worker's kTrialDone record carries.
StatusSnapshot tx_metrics(std::uint64_t tx) {
  StatusSnapshot m;
  m.counters.push_back(StatusCounter{"phy", "tx", tx});
  return m;
}

std::uint64_t tx_total(const StatusBoard& board) {
  StatusSnapshot snap;
  board.fill_snapshot(snap);
  const auto* tx = find_counter(snap, "phy", "tx");
  return tx != nullptr ? tx->value : 0;
}

TEST(StatusBoardTest, RepeatedLivePushReplacesLiveView) {
  sim::TelemetryContext context;
  auto* tx1 = context.counter("phy", "tx", 1);
  auto* tx2 = context.counter("phy", "tx", 2);  // per-node rows aggregate
  auto* arena = context.gauge("sim", "arena_bytes");
  auto* backoff = context.histogram("mac", "backoff");
  *tx1 = 5;
  *tx2 = 2;
  *arena = 100.0;
  backoff->record(3);

  StatusBoard board;
  board.trial_started(0);
  board.set_live(0, registry_metrics(context));
  EXPECT_EQ(tx_total(board), 7u);

  // A second push of the SAME registry replaces the first whole.
  *tx1 = 9;
  *arena = 50.0;
  backoff->record(5);
  board.set_live(0, registry_metrics(context));
  StatusSnapshot snap;
  board.fill_snapshot(snap);
  const auto* tx = find_counter(snap, "phy", "tx");
  ASSERT_NE(tx, nullptr);
  EXPECT_EQ(tx->value, 11u);  // the latest view, not 7 + 11
  const auto* gauge = find_gauge(snap, "sim", "arena_bytes");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 50.0);
  const auto* hist = find_hist(snap, "mac", "backoff");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2u);

  // A dropped view (a dead source) leaves nothing behind.
  board.drop_live(0);
  EXPECT_EQ(tx_total(board), 0u);
}

TEST(StatusBoardTest, RetryDropsTheAttemptsLiveView) {
  StatusBoard board;
  board.trial_started(0);
  board.set_live(0, tx_metrics(9));
  board.attempt_reset(0);  // the attempt failed; its work must not count
  EXPECT_EQ(tx_total(board), 0u);
  board.set_live(0, tx_metrics(4));
  board.trial_settled(0, /*failed=*/false, 1);
  EXPECT_EQ(tx_total(board), 4u);

  // A terminal failure drops the live view the same way.
  board.trial_started(1);
  board.set_live(1, tx_metrics(5));
  board.trial_settled(1, /*failed=*/true, 1);
  EXPECT_EQ(tx_total(board), 4u);
  EXPECT_TRUE(board.trial_metrics(1).counters.empty());
}

TEST(StatusBoardTest, SettleMovesFinalRegistryIntoTotals) {
  StatusBoard board;
  board.trial_started(0);
  board.trial_started(1);
  board.set_live(0, tx_metrics(3));
  board.set_live(1, tx_metrics(5));
  EXPECT_EQ(tx_total(board), 8u);  // totals + live views

  board.trial_settled(0, /*failed=*/false, 1);
  EXPECT_EQ(tx_total(board), 8u);  // moved, not copied
  ASSERT_EQ(board.trial_metrics(0).counters.size(), 1u);
  EXPECT_EQ(board.trial_metrics(0).counters[0].value, 3u);
  const auto live = board.live_view();
  ASSERT_EQ(live.counters.size(), 1u);
  EXPECT_EQ(live.counters[0].value, 5u);  // only trial 1 is still live

  board.trial_settled(1, /*failed=*/false, 1);
  EXPECT_TRUE(board.live_view().counters.empty());
  EXPECT_EQ(tx_total(board), 8u);
}

TEST(StatusBoardTest, DuplicateSettleOfOneIndexIsLastWins) {
  StatusBoard board;
  board.settle_metrics(2, tx_metrics(5));
  board.settle_metrics(2, tx_metrics(5));  // a double completion
  EXPECT_EQ(tx_total(board), 5u);
  board.settle_metrics(2, tx_metrics(7));
  EXPECT_EQ(tx_total(board), 7u);
  board.settle_metrics(3, tx_metrics(1));
  EXPECT_EQ(tx_total(board), 8u);
}

TEST(StatusBoardTest, TotalsSumCountersMaxGaugesMergeHistograms) {
  StatusSnapshot a;
  a.counters.push_back(StatusCounter{"sim", "eq_resizes", 1});
  a.gauges.push_back(StatusGauge{"sim", "arena_bytes", 100.0});
  StatusHistogram ha;
  ha.component = "profile";
  ha.name = "trial_setup_ns";
  ha.hist.record(10);
  a.histograms.push_back(ha);

  StatusSnapshot b;
  b.counters.push_back(StatusCounter{"sim", "eq_resizes", 2});
  b.counters.push_back(StatusCounter{"phy", "frames", 5});
  b.gauges.push_back(StatusGauge{"sim", "arena_bytes", 50.0});
  StatusHistogram hb = ha;
  hb.hist.record(20);
  b.histograms.push_back(hb);
  b.done = 999;  // lifecycle fields of a metrics table are ignored

  // Settle order must not matter, gauges included.
  for (const bool a_first : {true, false}) {
    StatusBoard board;
    board.settle_metrics(a_first ? 0 : 1, a);
    board.settle_metrics(a_first ? 1 : 0, b);
    StatusSnapshot snap;
    board.fill_snapshot(snap);
    EXPECT_EQ(snap.done, 0u);
    const auto* resizes = find_counter(snap, "sim", "eq_resizes");
    ASSERT_NE(resizes, nullptr);
    EXPECT_EQ(resizes->value, 3u);
    const auto* frames = find_counter(snap, "phy", "frames");
    ASSERT_NE(frames, nullptr);
    EXPECT_EQ(frames->value, 5u);
    const auto* arena = find_gauge(snap, "sim", "arena_bytes");
    ASSERT_NE(arena, nullptr);
    EXPECT_EQ(arena->value, 100.0);  // max over settled trials
    const auto* setup = find_hist(snap, "profile", "trial_setup_ns");
    ASSERT_NE(setup, nullptr);
    EXPECT_EQ(setup->count, 3u);  // 1 from a + 2 from b
  }
}

// ---- StatusPublisher ---------------------------------------------------

TEST(StatusPublisherTest, TicksPeriodicallyAndOnceAtDestruction) {
  std::atomic<int> ticks{0};
  {
    StatusPublisher publisher{10, [&] { ++ticks; }};
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // Several periodic ticks plus the guaranteed final one.
  EXPECT_GE(ticks.load(), 3);

  ticks = 0;
  {
    StatusPublisher publisher{60'000, [&] { ++ticks; }};
    // Destroyed long before the first interval elapses...
  }
  // ...and the final tick still fired: pollers always see the settled
  // end state.
  EXPECT_EQ(ticks.load(), 1);
}

// ---- the --status-* CLI surface ----------------------------------------

std::vector<char*> make_argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& arg : args) argv.push_back(arg.data());
  return argv;
}

TEST(StatusCliTest, ParsesStatusFlags) {
  std::vector<std::string> args = {"bench",
                                   "--status-json", "/tmp/st.json",
                                   "--status-interval-ms", "250",
                                   "--profile-phases"};
  auto argv = make_argv(args);
  int argc = static_cast<int>(argv.size());
  const auto cli = consume_campaign_cli(argc, argv.data());
  EXPECT_EQ(cli.status_json, "/tmp/st.json");
  EXPECT_EQ(cli.status_interval_ms, 250u);
  EXPECT_TRUE(cli.profile_phases);
  EXPECT_EQ(argc, 1);  // everything consumed

  std::vector<std::string> bare = {"bench"};
  auto bare_argv = make_argv(bare);
  int bare_argc = static_cast<int>(bare_argv.size());
  const auto defaults = consume_campaign_cli(bare_argc, bare_argv.data());
  EXPECT_TRUE(defaults.status_json.empty());
  EXPECT_EQ(defaults.status_interval_ms, 1000u);
  EXPECT_FALSE(defaults.profile_phases);
}

void parse_status_interval(const char* value) {
  std::vector<std::string> args = {"bench", "--status-interval-ms", value};
  auto argv = make_argv(args);
  int argc = static_cast<int>(argv.size());
  (void)consume_campaign_cli(argc, argv.data());
}

TEST(StatusCliDeathTest, RejectsZeroIntervalWithExit2) {
  EXPECT_EXIT(parse_status_interval("0"), ::testing::ExitedWithCode(2),
              "--status-interval-ms");
}

TEST(StatusCliDeathTest, RejectsJunkIntervalWithExit2) {
  EXPECT_EXIT(parse_status_interval("soon"), ::testing::ExitedWithCode(2),
              "--status-interval-ms");
}

// ---- supervised campaigns feeding a board ------------------------------

TEST(SupervisedStatusTest, BoardMatchesReportAtAnyThreadCount) {
  for (const std::size_t threads : {1u, 4u}) {
    StatusBoard board;
    SupervisorOptions options;
    options.threads = threads;
    options.status = &board;
    options.run_trial = [](const ExperimentConfig& config) {
      if (config.seed % 3 == 0) {
        throw std::runtime_error("scenario failure");
      }
      return synthetic_result(config.seed);
    };
    const auto report = run_supervised(scenario_trials(9, 100), options);
    ASSERT_EQ(report.failures.size(), 3u);  // seeds 102, 105, 108

    StatusSnapshot snap;
    board.fill_snapshot(snap);
    EXPECT_EQ(snap.done, 6u) << "threads=" << threads;
    EXPECT_EQ(snap.failed, 3u);
    EXPECT_EQ(snap.in_flight, 0u);
    const auto* wall = find_hist(snap, "runner", "trial_wall_ms");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->count, 9u);  // every settle, failures included
  }
}

TEST(SupervisedStatusTest, ReplayedTrialsCountAsReplayed) {
  const std::string journal = temp_path("replay.journal");
  SupervisorOptions options;
  options.threads = 2;
  options.journal_path = journal;
  options.run_trial = [](const ExperimentConfig& config) {
    return synthetic_result(config.seed);
  };
  const auto first = run_supervised(scenario_trials(6, 200), options);
  ASSERT_TRUE(first.all_completed());

  StatusBoard board;
  options.status = &board;
  const auto second = run_supervised(scenario_trials(6, 200), options);
  EXPECT_EQ(second.replayed, 6u);
  StatusSnapshot snap;
  board.fill_snapshot(snap);
  EXPECT_EQ(snap.replayed, 6u);
  EXPECT_EQ(snap.done, 6u);
  std::filesystem::remove(journal);
}

TEST(SupervisedStatusTest, RealTrialMetricsFlowAndBytesStayIdentical) {
  // Two REAL trials, run with and without a status board: the board
  // must pick up the engine-health registry rows (sim/arena_bytes,
  // sim/eq_resizes), and the journal and per-trial trace files must be
  // byte-identical — status is strictly off-band.
  const std::vector<ExperimentConfig> trials = {real_trial(900),
                                                real_trial(901)};
  const auto run = [&](const char* tag, StatusBoard* board) {
    SupervisorOptions options;
    options.threads = 1;
    options.journal_path = temp_path(tag) + ".journal";
    options.trace_path_base = temp_path(tag) + ".jsonl";
    options.status = board;
    return run_supervised(trials, options);
  };
  const auto plain = run("plain", nullptr);
  StatusBoard board;
  const auto observed = run("observed", &board);
  ASSERT_TRUE(plain.all_completed());
  ASSERT_TRUE(observed.all_completed());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    expect_identical(plain.results[i], observed.results[i]);
  }

  const std::string plain_journal = temp_path("plain") + ".journal";
  const std::string observed_journal = temp_path("observed") + ".journal";
  EXPECT_FALSE(slurp(plain_journal).empty());
  EXPECT_EQ(slurp(plain_journal), slurp(observed_journal));
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto plain_trace = trial_trace_path(temp_path("plain") + ".jsonl",
                                              i, trials[i].seed);
    const auto observed_trace = trial_trace_path(
        temp_path("observed") + ".jsonl", i, trials[i].seed);
    EXPECT_FALSE(slurp(plain_trace).empty());
    EXPECT_EQ(slurp(plain_trace), slurp(observed_trace));
    std::filesystem::remove(plain_trace);
    std::filesystem::remove(observed_trace);
  }
  std::filesystem::remove(plain_journal);
  std::filesystem::remove(observed_journal);

  StatusSnapshot snap;
  board.fill_snapshot(snap);
  EXPECT_EQ(snap.done, 2u);
  EXPECT_NE(find_counter(snap, "sim", "eq_resizes"), nullptr);
  EXPECT_NE(find_gauge(snap, "sim", "arena_bytes"), nullptr);
  const auto* wall = find_hist(snap, "runner", "trial_wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 2u);
}

TEST(SupervisedStatusTest, TotalsAreExactAtAnyThreadCount) {
  // Every trial's final registry counts exactly once, whichever thread
  // ran it and in whatever order the trials settled.
  const auto trials = real_trials(4, 920);
  std::vector<StatusSnapshot> finals;
  for (const std::size_t threads : {1u, 4u}) {
    StatusBoard board;
    SupervisorOptions options;
    options.threads = threads;
    options.status = &board;
    options.profile_phases = true;
    ASSERT_TRUE(run_supervised(trials, options).all_completed());
    finals.emplace_back();
    board.fill_snapshot(finals.back());
  }

  // The reference: each trial run on its own, its last registry push
  // settled under its index.
  StatusBoard reference;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    ExperimentConfig config = trials[i];
    config.profile_phases = true;
    config.status = [&reference, i](const sim::TelemetryContext& t) {
      reference.settle_metrics(i, registry_metrics(t));
    };
    (void)run_experiment(config);
  }
  StatusSnapshot expected;
  reference.fill_snapshot(expected);
  ASSERT_NE(find_counter(expected, "phy", "frames_tx"), nullptr);

  for (const auto& snap : finals) {
    EXPECT_EQ(counter_table(snap), counter_table(expected));
    EXPECT_EQ(gauge_table(snap), gauge_table(expected));
    const auto* setup = find_hist(snap, "profile", "trial_setup_ns");
    ASSERT_NE(setup, nullptr);
    EXPECT_EQ(setup->count, trials.size());
  }
  EXPECT_EQ(hist_counts(finals[0]), hist_counts(finals[1]));
}

TEST(LocalCampaignStatusTest, WritesFinalSettledStatusFile) {
  const std::string status_path = temp_path("local.json");
  CampaignCli cli;
  cli.threads = 1;
  cli.status_json = status_path;
  cli.status_interval_ms = 25;
  const std::vector<ExperimentConfig> trials = {real_trial(910),
                                                real_trial(911)};
  const auto report = run_campaign(trials, cli, {});
  ASSERT_TRUE(report.all_completed());

  const std::string text = slurp(status_path);
  EXPECT_TRUE(well_formed_json(text)) << text;
  EXPECT_NE(text.find("\"schema\":\"fourbit.status/1\""), std::string::npos);
  EXPECT_NE(text.find("\"done\":2"), std::string::npos);
  EXPECT_NE(text.find("\"total\":2"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"local\""), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(status_path + ".tmp"));
  std::filesystem::remove(status_path);
}

// ---- multi-process campaigns streaming status --------------------------

DispatchOptions st_mp_options(const std::string& scenario, std::size_t n,
                              std::uint64_t base, std::size_t workers,
                              const std::string& journal = "") {
  DispatchOptions mp;
  mp.workers = workers;
  mp.exec_argv = {"/proc/self/exe",
                  "--st-scenario", scenario,
                  "--st-trials",   std::to_string(n),
                  "--st-seed",     std::to_string(base),
                  "--threads",     "1",
                  "--status-interval-ms", "20"};
  mp.supervisor.journal_path = journal;
  mp.heartbeat_interval_ms = 20;
  mp.status_interval_ms = 20;
  mp.restart_backoff = Backoff{10, 100, 0.0};
  return mp;
}

void expect_monotonic(const std::vector<StatusSnapshot>& snaps,
                      std::uint64_t total) {
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].total, total);
    if (i == 0) continue;
    EXPECT_GT(snaps[i].seq, snaps[i - 1].seq);
    EXPECT_GE(snaps[i].done, snaps[i - 1].done);
    EXPECT_GE(snaps[i].failed, snaps[i - 1].failed);
  }
}

TEST(MultiprocessStatusTest, CleanCampaignStreamsMonotonicStatus) {
  for (const std::size_t workers : {1u, 3u}) {
    const std::string status_path = temp_path("mp_clean.json");
    auto mp = st_mp_options("clean", 8, 300, workers);
    mp.status_path = status_path;
    std::vector<StatusSnapshot> snaps;
    mp.on_status = [&](const StatusSnapshot& s) { snaps.push_back(s); };

    const auto report =
        dispatch_campaign(scenario_trials(8, 300), mp);
    ASSERT_TRUE(report.all_completed()) << "workers=" << workers;

    ASSERT_FALSE(snaps.empty());
    expect_monotonic(snaps, 8);
    const auto& last = snaps.back();
    EXPECT_EQ(last.done, 8u);
    EXPECT_EQ(last.failed, 0u);
    EXPECT_EQ(last.in_flight, 0u);
    ASSERT_EQ(last.sources.size(), workers);
    for (const auto& src : last.sources) {
      EXPECT_EQ(src.kind, StatusSource::Kind::kWorker);
      EXPECT_EQ(src.name.front(), 'w');
    }
    // Worker registries crossed the socket and merged: every settle's
    // wall time landed in the campaign-wide histogram.
    const auto* wall = find_hist(last, "runner", "trial_wall_ms");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->count, 8u);

    const std::string text = slurp(status_path);
    EXPECT_TRUE(well_formed_json(text)) << text;
    EXPECT_NE(text.find("\"schema\":\"fourbit.status/1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"done\":8"), std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(status_path + ".tmp"));
    std::filesystem::remove(status_path);
  }
}

TEST(MultiprocessStatusTest, JournalBytesIdenticalWithAndWithoutStatus) {
  const std::string plain_stem = temp_path("mp_plain.journal");
  const std::string observed_stem = temp_path("mp_observed.journal");
  const auto plain = dispatch_campaign(
      scenario_trials(6, 1300),
      st_mp_options("clean", 6, 1300, 2, plain_stem));

  auto mp = st_mp_options("clean", 6, 1300, 2, observed_stem);
  const std::string status_path = temp_path("mp_journal.json");
  mp.status_path = status_path;
  std::vector<StatusSnapshot> snaps;
  mp.on_status = [&](const StatusSnapshot& s) { snaps.push_back(s); };
  const auto observed = dispatch_campaign(scenario_trials(6, 1300), mp);

  ASSERT_TRUE(plain.all_completed());
  ASSERT_TRUE(observed.all_completed());
  for (std::size_t i = 0; i < 6; ++i) {
    expect_identical(plain.results[i], observed.results[i]);
  }
  EXPECT_FALSE(slurp(plain_stem).empty());
  EXPECT_EQ(slurp(plain_stem), slurp(observed_stem));
  std::filesystem::remove(plain_stem);
  std::filesystem::remove(observed_stem);
  std::filesystem::remove(status_path);
}

TEST(MultiprocessStatusTest, WorkerDeathSurfacesLossesAndFailures) {
  const std::string status_path = temp_path("mp_segv.json");
  auto mp = st_mp_options("segv@2", 6, 400, 2);
  mp.status_path = status_path;
  std::vector<StatusSnapshot> snaps;
  mp.on_status = [&](const StatusSnapshot& s) { snaps.push_back(s); };

  const auto report = dispatch_campaign(scenario_trials(6, 400), mp);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 2u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kHardCrash);

  ASSERT_FALSE(snaps.empty());
  expect_monotonic(snaps, 6);
  const auto& last = snaps.back();
  EXPECT_EQ(last.done, 5u);
  EXPECT_EQ(last.failed, 1u);
  EXPECT_EQ(last.in_flight, 0u);
  EXPECT_GE(last.hard_crashes, 2u);  // crashed, respawned, crashed again
  EXPECT_GE(last.worker_respawns, 1u);
  std::uint64_t losses = 0;
  for (const auto& src : last.sources) losses += src.losses;
  EXPECT_GE(losses, 1u);

  const std::string text = slurp(status_path);
  EXPECT_TRUE(well_formed_json(text)) << text;
  EXPECT_NE(text.find("\"failed\":1"), std::string::npos);
  std::filesystem::remove(status_path);
}

TEST(MultiprocessStatusTest, WorkerDeathCountsOnlySettledTrials) {
  // The SIGSEGV fixture above on real trials: trial 2 runs to its end,
  // lingers until its registry has reached the coordinator in a live
  // view, then kills its worker — twice, so it is quarantined. Neither
  // crashed attempt may count: the final metrics equal a clean
  // in-process run of the five trials that settled.
  const std::size_t n = 6;
  const std::uint64_t base = 1400;
  auto mp = st_mp_options("segv@2", n, base, 2);
  mp.exec_argv.push_back("--st-real");
  StatusSnapshot last;
  mp.on_status = [&](const StatusSnapshot& s) { last = s; };
  const auto report = dispatch_campaign(real_trials(n, base), mp);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 2u);
  EXPECT_GE(report.hard_crashes, 2u);

  StatusBoard board;
  SupervisorOptions options;
  options.threads = 1;
  options.status = &board;
  options.subset = {0, 1, 3, 4, 5};
  ASSERT_TRUE(run_supervised(real_trials(n, base), options).all_completed());
  StatusSnapshot clean;
  board.fill_snapshot(clean);
  ASSERT_NE(find_counter(clean, "phy", "frames_tx"), nullptr);
  EXPECT_EQ(counter_table(last), counter_table(clean));
  EXPECT_EQ(gauge_table(last), gauge_table(clean));
  EXPECT_EQ(hist_counts(last), hist_counts(clean));

  EXPECT_EQ(last.done, 5u);
  EXPECT_EQ(last.failed, 1u);
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  for (const auto& src : last.sources) {
    done += src.done;
    failed += src.failed;
  }
  EXPECT_EQ(done, last.done);
  EXPECT_EQ(failed, last.failed);
}

}  // namespace
}  // namespace fourbit::runner

int main(int argc, char** argv) {
  auto cli = fourbit::runner::consume_campaign_cli(argc, argv);
  if (cli.worker_fd >= 0) {
    fourbit::runner::st_worker_main(argc, argv, std::move(cli));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
