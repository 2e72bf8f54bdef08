// Tests of the campaign building blocks: seed derivation, result
// ordering, progress reporting, and the determinism contract (a sweep run
// by run_supervised on N threads is bit-identical to running its trials
// one after another).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/supervisor.hpp"
#include "sim/rng.hpp"
#include "topology/topology.hpp"

namespace fourbit::runner {
namespace {

/// A small, fast trial: a truncated Mirage testbed for a short run.
ExperimentConfig small_trial(std::uint64_t seed) {
  sim::Rng rng{seed};
  ExperimentConfig cfg;
  cfg.testbed = topology::mirage(rng);
  cfg.testbed.topology.nodes.resize(16);
  cfg.duration = sim::Duration::from_minutes(3.0);
  cfg.seed = seed;
  return cfg;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.mean_depth, b.mean_depth);
  EXPECT_EQ(a.per_node_delivery, b.per_node_delivery);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_tx, b.data_tx);
  EXPECT_EQ(a.beacon_tx, b.beacon_tx);
  EXPECT_EQ(a.radio_frames, b.radio_frames);
  EXPECT_EQ(a.retx_drops, b.retx_drops);
  EXPECT_EQ(a.queue_drops, b.queue_drops);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.parent_changes, b.parent_changes);
  EXPECT_EQ(a.final_tree.depths, b.final_tree.depths);
}

/// The reference every threaded run must match: no threads at all.
std::vector<ExperimentResult> run_serially(
    const std::vector<ExperimentConfig>& trials) {
  std::vector<ExperimentResult> results;
  for (const auto& trial : trials) results.push_back(run_experiment(trial));
  return results;
}

std::vector<ExperimentResult> run_threaded(
    const std::vector<ExperimentConfig>& trials, std::size_t threads) {
  SupervisorOptions options;
  options.threads = threads;
  CampaignReport report = run_supervised(trials, options);
  EXPECT_TRUE(report.all_completed());
  return std::move(report.results);
}

TEST(CampaignTest, SeedSweepDerivesSeedsFromBasePlusIndex) {
  ExperimentConfig base;
  base.seed = 100;
  const auto trials = Campaign::seed_sweep(base, 5);
  ASSERT_EQ(trials.size(), 5u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].seed, 100u + i);
  }
}

TEST(CampaignTest, EmptyTrialListYieldsEmptyResults) {
  EXPECT_TRUE(run_supervised({}, SupervisorOptions{}).results.empty());
}

// The acceptance contract: the same sweep run serially and on N threads
// produces bit-identical per-trial results (and therefore aggregates).
TEST(CampaignTest, ThreadCountDoesNotChangeResults) {
  const auto trials = Campaign::seed_sweep(small_trial(42), 6);
  const auto a = run_serially(trials);
  const auto b = run_threaded(trials, 4);

  ASSERT_EQ(a.size(), trials.size());
  ASSERT_EQ(b.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    expect_identical(a[i], b[i]);
  }

  const auto sa = summarize(a);
  const auto sb = summarize(b);
  EXPECT_EQ(sa.cost.mean, sb.cost.mean);
  EXPECT_EQ(sa.cost.stddev, sb.cost.stddev);
  EXPECT_EQ(sa.delivery_ratio.mean, sb.delivery_ratio.mean);
  EXPECT_EQ(sa.mean_depth.quartiles.median, sb.mean_depth.quartiles.median);
}

// The event-queue implementation is a pure engine knob: heap and
// calendar must produce bit-identical trial results, at any thread
// count. (The engine-health fields are the one deliberate exception —
// the heap never rebuilds, so eq_resizes differs by design.)
TEST(CampaignTest, QueueImplAndThreadCountDoNotChangeResults) {
  const auto cal_trials = Campaign::seed_sweep(small_trial(21), 4);
  auto heap_trials = cal_trials;
  for (auto& t : heap_trials) t.sim.use_calendar_queue = false;

  const auto cal1 = run_serially(cal_trials);
  const auto cal4 = run_threaded(cal_trials, 4);
  const auto heap1 = run_serially(heap_trials);

  ASSERT_EQ(cal1.size(), cal_trials.size());
  for (std::size_t i = 0; i < cal_trials.size(); ++i) {
    expect_identical(cal1[i], cal4[i]);
    expect_identical(cal1[i], heap1[i]);
    EXPECT_EQ(cal1[i].arena_bytes, cal4[i].arena_bytes);
    EXPECT_EQ(cal1[i].eq_resizes, cal4[i].eq_resizes);
    EXPECT_EQ(heap1[i].eq_resizes, 0u);  // the heap never rebuilds
  }
}

// Exported telemetry must be byte-identical across queue modes, apart
// from the engine's own health rows (component "sim": arena growth and
// queue-resize counters are mode-dependent by design and register
// lazily so they never perturb the rest of the stream).
TEST(CampaignTest, TraceJsonlMatchesAcrossQueueModes) {
  const auto read_stripped = [](const std::string& path) {
    std::ifstream in{path};
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"component\":\"sim\"") != std::string::npos) continue;
      lines.push_back(line);
    }
    return lines;
  };

  ExperimentConfig cal = small_trial(33);
  cal.trace_level = sim::TraceLevel::kDebug;
  cal.trace_path = (std::filesystem::path{::testing::TempDir()} /
                    "fourbit_trace_cal.jsonl")
                       .string();
  ExperimentConfig heap = cal;
  heap.sim.use_calendar_queue = false;
  heap.trace_path = (std::filesystem::path{::testing::TempDir()} /
                     "fourbit_trace_heap.jsonl")
                        .string();

  (void)run_experiment(cal);
  (void)run_experiment(heap);

  const auto cal_lines = read_stripped(cal.trace_path);
  const auto heap_lines = read_stripped(heap.trace_path);
  ASSERT_FALSE(cal_lines.empty());
  EXPECT_EQ(cal_lines, heap_lines);
  std::filesystem::remove(cal.trace_path);
  std::filesystem::remove(heap.trace_path);
}

TEST(CampaignTest, ResultsIndexedByTrialNotCompletionOrder) {
  // Distinct seeds make distinct results; re-running any single trial
  // alone must reproduce the slot the campaign assigned it.
  const auto trials = Campaign::seed_sweep(small_trial(7), 3);
  const auto all = run_threaded(trials, 3);
  const auto solo = run_experiment(trials[1]);
  expect_identical(all[1], solo);
}

TEST(CampaignTest, ProgressCallbackSeesEveryTrialExactlyOnce) {
  const auto trials = Campaign::seed_sweep(small_trial(3), 4);
  std::vector<std::size_t> indices;
  std::vector<std::size_t> completed;
  SupervisorOptions options;
  options.threads = 2;
  options.on_trial_done = [&](const TrialProgress& p) {
    // Serialized by the supervisor's progress mutex: no locking needed.
    indices.push_back(p.trial_index);
    completed.push_back(p.completed);
    EXPECT_EQ(p.total, 4u);
    ASSERT_NE(p.config, nullptr);
    ASSERT_NE(p.result, nullptr);
    EXPECT_EQ(p.config->seed, trials[p.trial_index].seed);
  };
  EXPECT_TRUE(run_supervised(trials, options).all_completed());

  std::sort(indices.begin(), indices.end());
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2, 3}));
  std::sort(completed.begin(), completed.end());
  EXPECT_EQ(completed, (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(CampaignTest, PooledPerNodeDeliveryConcatenates) {
  ExperimentResult r1, r2;
  r1.per_node_delivery = {0.5, 1.0};
  r2.per_node_delivery = {0.25};
  const auto pooled = pooled_per_node_delivery({r1, r2});
  EXPECT_EQ(pooled, (std::vector<double>{0.5, 1.0, 0.25}));
}

TEST(CampaignTest, ConsumeThreadsFlagStripsArguments) {
  char prog[] = "bench";
  char a1[] = "30";
  char flag[] = "--threads";
  char n[] = "8";
  char a2[] = "5";
  char* argv[] = {prog, a1, flag, n, a2};
  int argc = 5;
  EXPECT_EQ(consume_threads_flag(argc, argv), 8u);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "30");
  EXPECT_STREQ(argv[2], "5");

  // Absent flag: untouched.
  char* argv2[] = {prog, a1};
  int argc2 = 2;
  EXPECT_EQ(consume_threads_flag(argc2, argv2), 0u);
  EXPECT_EQ(argc2, 2);
}

}  // namespace
}  // namespace fourbit::runner
