// Tests of the multi-process campaign pool (runner/worker.hpp): the
// status-record codec, index-span formatting, flight-recorder
// snapshots, the campaign journal's shard, Backoff determinism,
// the --workers CLI surface, end-to-end coordinator runs against
// workers that deliberately SIGSEGV, OOM, hang, exit nonzero, freeze,
// and corrupt their socket mid-record, and a worker's own exit when its
// coordinator disappears.
//
// This binary self-execs as its own workers: main() checks for the
// hidden --worker-fd flag and, when present, rebuilds the trial list
// from --mp-* flags and enters run_worker with a scenario-driven
// run_trial override instead of running gtest.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/describe.hpp"
#include "runner/dispatch.hpp"
#include "runner/journal.hpp"
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

/// A deterministic fake trial result: a pure function of the seed, so a
/// worker process and the in-process reference compute identical bytes.
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

/// Trial list both sides rebuild independently: seeds base, base+1, ...
std::vector<ExperimentConfig> scenario_trials(std::size_t n,
                                              std::uint64_t base) {
  std::vector<ExperimentConfig> trials(n);
  for (std::size_t i = 0; i < n; ++i) trials[i].seed = base + i;
  return trials;
}

/// A small REAL simulation derived purely from the seed, so worker
/// processes and the in-process reference rebuild identical configs.
/// Exercises the full engine (calendar queue, batch kernels, arenas)
/// across the process boundary.
ExperimentConfig real_trial(std::uint64_t seed) {
  sim::Rng rng{seed};
  ExperimentConfig cfg;
  cfg.testbed = topology::mirage(rng);
  cfg.testbed.topology.nodes.resize(12);
  cfg.duration = sim::Duration::from_minutes(2.0);
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

void oom_alloc() noexcept {
  // bad_alloc escaping a noexcept function → std::terminate → SIGABRT:
  // the same death shape as a real allocator failure in a destructor.
  auto* huge = new std::vector<char>;
  huge->resize(std::size_t{1} << 30, 'x');
}

/// The scenario trial executor a worker installs: trial `index` of the
/// scenario misbehaves in the requested way; everything else returns
/// the synthetic result.
std::function<ExperimentResult(const ExperimentConfig&)> scenario_run_trial(
    Scenario scenario, int session_fd) {
  return [scenario, session_fd](const ExperimentConfig& config) {
    // Full-stack scenario: run an actual simulation rebuilt from the
    // seed instead of returning synthetic bytes.
    if (scenario.kind == "real") {
      return run_experiment(real_trial(config.seed));
    }
    if (scenario.kind == "slow") {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    // run_supervised stamps trace_trial with the trial index whenever
    // flight_flush_base is set — which the worker path always does.
    const std::size_t index =
        config.trace_trial >= 0
            ? static_cast<std::size_t>(config.trace_trial)
            : static_cast<std::size_t>(-1);
    if (index == scenario.index) {
      if (scenario.kind == "segv") {
        // Leave crash evidence first, like a real sim's flush hook.
        std::vector<sim::TelemetryEvent> events(2);
        events[0].at = sim::Time::from_us(1000);
        events[0].kind = sim::EventKind::kRouteChange;
        events[0].node = 3;
        events[1].at = sim::Time::from_us(2000);
        events[1].kind = sim::EventKind::kDataDrop;
        events[1].node = 4;
        events[1].v0 = 0.75;
        if (!config.flight_flush_path.empty()) {
          write_flight_snapshot(config.flight_flush_path, index, config.seed,
                                events);
        }
        ::raise(SIGSEGV);
      } else if (scenario.kind == "exit3") {
        ::_exit(3);
      } else if (scenario.kind == "hang") {
        for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      } else if (scenario.kind == "freeze") {
        // Stops every thread, heartbeats included — only the
        // coordinator's heartbeat watchdog can reap this worker.
        ::raise(SIGSTOP);
      } else if (scenario.kind == "badcrc") {
        const std::uint8_t junk[16] = {0xAA, 0xBB, 0xCC, 0xDD, 0xAA, 0xBB,
                                       0xCC, 0xDD, 0xAA, 0xBB, 0xCC, 0xDD,
                                       0xAA, 0xBB, 0xCC, 0xDD};
        const ssize_t ignored = ::write(session_fd, junk, sizeof junk);
        (void)ignored;
        std::this_thread::sleep_for(std::chrono::seconds(10));
      } else if (scenario.kind == "tornkill") {
        WorkerRecord rec;
        rec.kind = WorkerRecordKind::kHeartbeat;
        const auto frame = encode_worker_record(rec);
        const ssize_t ignored = ::write(session_fd, frame.data(), 8);
        (void)ignored;
        ::raise(SIGKILL);
      } else if (scenario.kind == "oom") {
        struct rlimit limit;
        limit.rlim_cur = 256u << 20;
        limit.rlim_max = 256u << 20;
        ::setrlimit(RLIMIT_AS, &limit);
        oom_alloc();
      } else if (scenario.kind == "fail") {
        throw std::runtime_error("scenario soft failure");
      }
    }
    return synthetic_result(config.seed);
  };
}

}  // namespace

/// Worker-mode entry (called from main when --worker-fd is present):
/// rebuild the trial list from the --mp-* flags and hand off to
/// run_worker with the scenario executor installed.
[[noreturn]] void mp_worker_main(int argc, char** argv, CampaignCli cli) {
  const Scenario scenario = parse_scenario(
      consume_flag(argc, argv, "--mp-scenario").value_or("clean"));
  const std::size_t n = static_cast<std::size_t>(
      consume_uint_flag(argc, argv, "--mp-trials").value_or(0));
  const std::uint64_t base =
      consume_uint_flag(argc, argv, "--mp-seed").value_or(1);
  const auto trials = scenario_trials(n, base);
  auto options = cli.supervisor_options();
  options.run_trial = scenario_run_trial(scenario, cli.worker_fd);
  run_worker(trials, cli, std::move(options));
}

namespace {

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.mean_depth, b.mean_depth);
  EXPECT_EQ(a.per_node_delivery, b.per_node_delivery);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_tx, b.data_tx);
  EXPECT_EQ(a.parent_changes, b.parent_changes);
  EXPECT_EQ(a.final_tree.depths, b.final_tree.depths);
  EXPECT_EQ(a.final_tree.mean_depth, b.final_tree.mean_depth);
}

std::string temp_stem(const char* name) {
  return (std::filesystem::path{::testing::TempDir()} /
          (std::string{"fourbit_"} + name + "_" +
           std::to_string(::getpid()) + ".journal"))
      .string();
}

/// Coordinator options for a self-exec scenario campaign. Workers run
/// --threads 1 so exactly one trial is in flight per worker: crash
/// attribution in the tests is then deterministic.
DispatchOptions mp_options(const std::string& scenario, std::size_t n,
                           std::uint64_t base, std::size_t workers,
                           const std::string& journal = "") {
  DispatchOptions mp;
  mp.workers = workers;
  mp.exec_argv = {"/proc/self/exe",
                  "--mp-scenario", scenario,
                  "--mp-trials",   std::to_string(n),
                  "--mp-seed",     std::to_string(base),
                  "--threads",     "1"};
  mp.supervisor.journal_path = journal;
  mp.restart_backoff = Backoff{10, 100, 0.0};
  return mp;
}

/// The single-process reference the merged report must match.
CampaignReport reference_report(std::size_t n, std::uint64_t base) {
  SupervisorOptions options;
  options.threads = 1;
  options.run_trial = [](const ExperimentConfig& config) {
    return synthetic_result(config.seed);
  };
  return run_supervised(scenario_trials(n, base), options);
}

// ---- status-record codec ----------------------------------------------

TEST(WorkerRecordCodecTest, RoundTripsEveryField) {
  WorkerRecord rec;
  rec.kind = WorkerRecordKind::kTrialFailed;
  rec.trial_index = 42;
  rec.seed = 0xDEADBEEFCAFE1234ULL;
  rec.attempt = 3;
  rec.failure_kind = FailureKind::kInvariant;
  rec.retried_total = 9;
  rec.what = "неожиданная ошибка: table overflow";  // bytes, not ASCII
  rec.flight.resize(2);
  rec.flight[0].at = sim::Time::from_us(123456);
  rec.flight[0].kind = sim::EventKind::kEtxUpdate;
  rec.flight[0].node = 5;
  rec.flight[0].peer = 6;
  rec.flight[0].arg = 1;
  rec.flight[0].v0 = 1.5;
  rec.flight[0].v1 = 2.25;
  rec.flight[1].at = sim::Time::from_us(123999);
  rec.flight[1].kind = sim::EventKind::kDataDrop;

  const auto frame = encode_worker_record(rec);
  TransportParser parser;
  parser.feed(frame.data(), frame.size());
  const auto parsed = parser.next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parser.corrupt());
  ASSERT_EQ(parsed->type, TransportFrame::Type::kStatus);
  const WorkerRecord* out = &parsed->record;
  EXPECT_EQ(out->kind, WorkerRecordKind::kTrialFailed);
  EXPECT_EQ(out->trial_index, 42u);
  EXPECT_EQ(out->seed, 0xDEADBEEFCAFE1234ULL);
  EXPECT_EQ(out->attempt, 3u);
  EXPECT_EQ(out->failure_kind, FailureKind::kInvariant);
  EXPECT_EQ(out->retried_total, 9u);
  EXPECT_EQ(out->what, rec.what);
  ASSERT_EQ(out->flight.size(), 2u);
  EXPECT_EQ(out->flight[0].at.us(), 123456);
  EXPECT_EQ(out->flight[0].kind, sim::EventKind::kEtxUpdate);
  EXPECT_EQ(out->flight[0].node, 5);
  EXPECT_EQ(out->flight[0].peer, 6);
  EXPECT_EQ(out->flight[0].v0, 1.5);
  EXPECT_EQ(out->flight[0].v1, 2.25);
  EXPECT_EQ(out->flight[1].kind, sim::EventKind::kDataDrop);
}

// ---- the worker pipe as TransportParser reads it ----------------------

TEST(WorkerPipeParserTest, BadMagicLatchesCorrupt) {
  TransportParser parser;
  const std::uint8_t junk[8] = {0xAA, 0xBB, 0, 0, 0, 0, 0, 0};
  parser.feed(junk, sizeof junk);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.corrupt());
  // Latched: even a subsequent valid frame is not trusted.
  WorkerRecord rec;
  const auto frame = encode_worker_record(rec);
  parser.feed(frame.data(), frame.size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.corrupt());
}

TEST(WorkerPipeParserTest, FlippedPayloadByteFailsCrc) {
  WorkerRecord rec;
  rec.kind = WorkerRecordKind::kTrialDone;
  rec.trial_index = 3;
  auto frame = encode_worker_record(rec);
  frame[10] ^= 0x01;  // inside the payload
  TransportParser parser;
  parser.feed(frame.data(), frame.size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.corrupt());
}

// ---- index spans ------------------------------------------------------

TEST(IndexSpanTest, FormatsRunsAndSingletons) {
  EXPECT_EQ(format_index_spans({0, 1, 2, 3, 4, 7, 9, 10, 11, 12}),
            "0-4,7,9-12");
  EXPECT_EQ(format_index_spans({5}), "5");
  EXPECT_EQ(format_index_spans({}), "");
  EXPECT_EQ(format_index_spans({3, 1, 2, 1}), "1-3");  // unsorted + dup
}

TEST(IndexSpanTest, ParseRoundTrips) {
  const std::vector<std::size_t> indices = {0, 1, 2, 3, 4, 7, 9, 10, 11, 12};
  const auto parsed = parse_index_spans(format_index_spans(indices));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, indices);
  const auto empty = parse_index_spans("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(IndexSpanTest, RejectsJunk) {
  EXPECT_FALSE(parse_index_spans("a").has_value());
  EXPECT_FALSE(parse_index_spans("1-").has_value());
  EXPECT_FALSE(parse_index_spans("-3").has_value());
  EXPECT_FALSE(parse_index_spans("1,,2").has_value());
  EXPECT_FALSE(parse_index_spans("1,2,").has_value());
  EXPECT_FALSE(parse_index_spans("5-2").has_value());
  EXPECT_FALSE(parse_index_spans("1;2").has_value());
}

// ---- flight snapshots -------------------------------------------------

TEST(FlightSnapshotTest, RoundTripsAndRejectsCorruption) {
  const std::string path = temp_stem("flight") + ".t0.flight";
  std::vector<sim::TelemetryEvent> events(3);
  events[0].at = sim::Time::from_us(10);
  events[0].kind = sim::EventKind::kBeaconTx;
  events[2].at = sim::Time::from_us(30);
  events[2].v1 = 4.5;
  write_flight_snapshot(path, 17, 421, events);

  const auto snap = load_flight_snapshot(path);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->trial_index, 17u);
  EXPECT_EQ(snap->seed, 421u);
  ASSERT_EQ(snap->events.size(), 3u);
  EXPECT_EQ(snap->events[0].at.us(), 10);
  EXPECT_EQ(snap->events[2].v1, 4.5);

  // Truncate: a torn snapshot must read as absent, not garbage.
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  std::filesystem::resize_file(path, 9);
  EXPECT_FALSE(load_flight_snapshot(path).has_value());
  std::remove(path.c_str());
  EXPECT_FALSE(load_flight_snapshot(path).has_value());
}

// ---- Backoff ----------------------------------------------------------

TEST(BackoffTest, PureFunctionOfAttemptAndSeed) {
  const Backoff backoff{100, 5000, 0.25};
  // Determinism across any execution context (--threads / --workers
  // cannot change it): same inputs, same delay, every time.
  for (std::size_t attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(backoff.delay_ms(attempt, 42), backoff.delay_ms(attempt, 42));
  }
  EXPECT_NE(backoff.delay_ms(3, 1), backoff.delay_ms(3, 2));  // jitter varies
}

TEST(BackoffTest, DoublesFromBaseAndCaps) {
  const Backoff backoff{100, 1000, 0.0};  // no jitter: exact doubling
  EXPECT_EQ(backoff.delay_ms(1, 7), 100u);
  EXPECT_EQ(backoff.delay_ms(2, 7), 200u);
  EXPECT_EQ(backoff.delay_ms(3, 7), 400u);
  EXPECT_EQ(backoff.delay_ms(4, 7), 800u);
  EXPECT_EQ(backoff.delay_ms(5, 7), 1000u);   // capped
  EXPECT_EQ(backoff.delay_ms(50, 7), 1000u);  // huge attempt still capped
}

TEST(BackoffTest, JitterStaysInBandAndZeroBaseMeansNoDelay) {
  const Backoff backoff{100, 100000, 0.25};
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto d = backoff.delay_ms(1, seed);
    EXPECT_GE(d, 75u);
    EXPECT_LE(d, 125u);
  }
  const Backoff immediate{0, 1000, 0.25};
  EXPECT_EQ(immediate.delay_ms(5, 42), 0u);
}

TEST(BackoffTest, RetriedCampaignIsIdenticalAcrossThreadCounts) {
  // A retry policy with real backoff must not smuggle scheduling noise
  // into the report: failures and results match at any --threads.
  const auto run = [](std::size_t threads) {
    SupervisorOptions options;
    options.threads = threads;
    options.retry.max_attempts = 2;
    options.retry.classify = [](const TrialFailure&) { return true; };
    options.retry.backoff = Backoff{5, 50, 0.25};
    options.run_trial = [](const ExperimentConfig& config) {
      if (config.seed % 3 == 0) {
        throw std::runtime_error("always fails");
      }
      return synthetic_result(config.seed);
    };
    return run_supervised(scenario_trials(9, 100), options);
  };
  const auto a = run(1);
  const auto b = run(4);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].trial_index, b.failures[i].trial_index);
    EXPECT_EQ(a.failures[i].attempt, b.failures[i].attempt);
  }
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.completed[i]) expect_identical(a.results[i], b.results[i]);
  }
}

// ---- subset execution -------------------------------------------------

TEST(SupervisorSubsetTest, RunsOnlyAssignedIndices) {
  SupervisorOptions options;
  options.threads = 2;
  options.subset = {1, 3, 17};  // 17 is out of range: ignored
  options.run_trial = [](const ExperimentConfig& config) {
    return synthetic_result(config.seed);
  };
  const auto report = run_supervised(scenario_trials(5, 10), options);
  EXPECT_EQ(report.completed, (std::vector<std::uint8_t>{0, 1, 0, 1, 0}));
  EXPECT_EQ(report.attempts, 2u);
}

// ---- journal shard merge ----------------------------------------------

TEST(ShardMergeTest, ToleratesTornShardTail) {
  const std::string stem = temp_stem("torn");
  const auto shard = CampaignJournal::shard_path(stem);
  {
    auto journal = TrialJournal::open_append(shard);
    journal.append(0, 200, synthetic_result(200));
  }
  {
    std::FILE* file = std::fopen(shard.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const std::uint8_t torn[5] = {0x46, 0x4A, 0x00, 0x00, 0x01};
    std::fwrite(torn, 1, sizeof torn, file);
    std::fclose(file);
  }
  const auto trials = scenario_trials(2, 200);
  CampaignReport report;
  report.results.resize(trials.size());
  report.completed.assign(trials.size(), 0);
  CampaignJournal journal{stem, trials, report};
  EXPECT_TRUE(report.journal_torn);
  EXPECT_EQ(report.replayed, 1u);
  EXPECT_EQ(report.completed, (std::vector<std::uint8_t>{1, 0}));
  expect_identical(report.results[0], synthetic_result(200));
  journal.finish(report);
  EXPECT_EQ(TrialJournal::load(stem).entries.size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(shard));
  std::remove(stem.c_str());
}

TEST(ShardMergeTest, AppendAfterTornTailTruncatesAndStaysReadable) {
  // A worker killed mid-append leaves a torn tail; its respawn reopens
  // the same shard. open_append must truncate the garbage so the new
  // records are not stranded behind it.
  const std::string path = temp_stem("reopen") + ".w0.journal";
  {
    auto journal = TrialJournal::open_append(path);
    journal.append(0, 700, synthetic_result(700));
  }
  {
    std::FILE* file = std::fopen(path.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const std::uint8_t torn[7] = {0x46, 0x4A, 0x10, 0x00, 0x00, 0x00, 0xEE};
    std::fwrite(torn, 1, sizeof torn, file);
    std::fclose(file);
  }
  {
    auto journal = TrialJournal::open_append(path);
    journal.append(1, 701, synthetic_result(701));
  }
  const auto loaded = TrialJournal::load(path);
  EXPECT_FALSE(loaded.torn);
  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_EQ(loaded.entries[0].trial_index, 0u);
  EXPECT_EQ(loaded.entries[1].trial_index, 1u);
  expect_identical(loaded.entries[1].result, synthetic_result(701));
  std::remove(path.c_str());
}

// ---- CLI surface ------------------------------------------------------

std::vector<char*> make_argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& arg : args) argv.push_back(arg.data());
  return argv;
}

TEST(WorkersCliTest, ParsesWorkersAndHiddenWorkerFlags) {
  std::vector<std::string> args = {
      "bench",           "--workers",       "4",
      "--worker-fd",     "7",               "--worker-flight",
      "/tmp/x.w2",       "--worker-heartbeat-ms", "40",
      "--threads",       "3"};
  auto argv = make_argv(args);
  int argc = static_cast<int>(argv.size());
  const auto cli = consume_campaign_cli(argc, argv.data());
  EXPECT_EQ(cli.workers, 4u);
  EXPECT_EQ(cli.worker_fd, 7);
  EXPECT_EQ(cli.worker_flight, "/tmp/x.w2");
  EXPECT_EQ(cli.worker_heartbeat_ms, 40u);
  EXPECT_EQ(cli.threads, 3u);
  EXPECT_EQ(argc, 1);  // everything consumed
  // exec_argv snapshots the ORIGINAL command line, pre-stripping.
  ASSERT_EQ(cli.exec_argv.size(), 11u);
  EXPECT_EQ(cli.exec_argv[0], "bench");
  EXPECT_EQ(cli.exec_argv[1], "--workers");
}

TEST(WorkersCliTest, AbsentWorkersFlagMeansInProcess) {
  std::vector<std::string> args = {"bench", "--threads", "2"};
  auto argv = make_argv(args);
  int argc = static_cast<int>(argv.size());
  const auto cli = consume_campaign_cli(argc, argv.data());
  EXPECT_EQ(cli.workers, 0u);
  EXPECT_EQ(cli.worker_fd, -1);
}

void parse_workers_value(const char* value) {
  std::vector<std::string> args = {"bench", "--workers", value};
  auto argv = make_argv(args);
  int argc = static_cast<int>(argv.size());
  (void)consume_campaign_cli(argc, argv.data());
}

TEST(WorkersCliDeathTest, RejectsWorkersZeroWithExit2) {
  EXPECT_EXIT(parse_workers_value("0"), ::testing::ExitedWithCode(2),
              "--workers");
}

TEST(WorkersCliDeathTest, RejectsWorkersJunkWithExit2) {
  EXPECT_EXIT(parse_workers_value("many"), ::testing::ExitedWithCode(2),
              "--workers");
}

// ---- end-to-end multi-process campaigns -------------------------------

TEST(MultiprocessTest, CleanCampaignMatchesInProcessAtAnyWorkerCount) {
  const auto reference = reference_report(8, 300);
  for (const std::size_t workers : {1u, 3u}) {
    const auto trials = scenario_trials(8, 300);
    const auto report =
        dispatch_campaign(trials, mp_options("clean", 8, 300, workers));
    EXPECT_TRUE(report.failures.empty());
    EXPECT_EQ(report.hard_crashes, 0u);
    EXPECT_EQ(report.worker_respawns, 0u);
    EXPECT_EQ(report.attempts, 8u);
    ASSERT_EQ(report.completed, reference.completed);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      expect_identical(report.results[i], reference.results[i]);
    }
  }
}

TEST(MultiprocessTest, RealSimCampaignIsIdenticalAcrossWorkerCounts) {
  // Campaign-level bit-identity of the fast engine (calendar queue,
  // batch kernels, per-trial arenas, all default-on) across the process
  // isolation boundary: --workers 1 and --workers 3 must both match the
  // in-process single-threaded reference exactly, engine-health fields
  // included.
  const std::size_t n = 3;
  SupervisorOptions ref_options;
  ref_options.threads = 1;
  ref_options.run_trial = [](const ExperimentConfig& config) {
    return run_experiment(real_trial(config.seed));
  };
  const auto reference = run_supervised(scenario_trials(n, 900), ref_options);
  ASSERT_TRUE(reference.all_completed());

  for (const std::size_t workers : {1u, 3u}) {
    const auto trials = scenario_trials(n, 900);
    const auto report =
        dispatch_campaign(trials, mp_options("real", n, 900, workers));
    EXPECT_TRUE(report.failures.empty());
    EXPECT_EQ(report.hard_crashes, 0u);
    ASSERT_EQ(report.completed, reference.completed);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      expect_identical(report.results[i], reference.results[i]);
      EXPECT_EQ(report.results[i].arena_bytes,
                reference.results[i].arena_bytes);
      EXPECT_EQ(report.results[i].eq_resizes,
                reference.results[i].eq_resizes);
    }
  }
}

TEST(MultiprocessTest, SegvTrialBecomesHardCrashWithFlightEvidence) {
  const auto reference = reference_report(6, 400);
  const auto trials = scenario_trials(6, 400);
  const auto report =
      dispatch_campaign(trials, mp_options("segv@2", 6, 400, 2));
  ASSERT_EQ(report.failures.size(), 1u);
  const auto& failure = report.failures[0];
  EXPECT_EQ(failure.trial_index, 2u);
  EXPECT_EQ(failure.kind, FailureKind::kHardCrash);
  EXPECT_EQ(failure.seed, 402u);
  // Raw SIGSEGV normally; a sanitizer build intercepts it and exits
  // nonzero instead — both are hard crashes, only term_signal differs.
  EXPECT_TRUE(failure.term_signal == SIGSEGV || failure.term_signal == 0);
  if (failure.term_signal == SIGSEGV) {
    // The flushed snapshot written just before the crash was recovered.
    ASSERT_EQ(failure.flight.size(), 2u);
    EXPECT_EQ(failure.flight[0].kind, sim::EventKind::kRouteChange);
    EXPECT_EQ(failure.flight[1].v0, 0.75);
  }
  EXPECT_GE(report.hard_crashes, 2u);   // crashed, respawned, crashed again
  EXPECT_GE(report.worker_respawns, 1u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(report.completed[i]);
      continue;
    }
    ASSERT_TRUE(report.completed[i]) << "trial " << i;
    expect_identical(report.results[i], reference.results[i]);
  }
}

TEST(MultiprocessTest, NonzeroExitBecomesHardCrash) {
  const auto trials = scenario_trials(5, 500);
  const auto report =
      dispatch_campaign(trials, mp_options("exit3@1", 5, 500, 2));
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 1u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kHardCrash);
  EXPECT_EQ(report.failures[0].term_signal, 0);
  EXPECT_NE(report.failures[0].what.find("status 3"), std::string::npos);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(report.completed[i] != 0, i != 1);
  }
}

TEST(MultiprocessTest, OomKilledTrialBecomesHardCrash) {
  const auto trials = scenario_trials(4, 600);
  const auto report = dispatch_campaign(trials, mp_options("oom@0", 4, 600, 2));
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 0u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kHardCrash);
  for (std::size_t i = 1; i < trials.size(); ++i) {
    EXPECT_TRUE(report.completed[i]) << "trial " << i;
  }
}

TEST(MultiprocessTest, NonCooperativeHangIsCaughtByCoordinatorWatchdog) {
  const auto trials = scenario_trials(5, 700);
  auto mp = mp_options("hang@0", 5, 700, 2);
  mp.trial_timeout_ms = 1200;
  const auto report = dispatch_campaign(trials, mp);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 0u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kTimeout);
  for (std::size_t i = 1; i < trials.size(); ++i) {
    EXPECT_TRUE(report.completed[i]) << "trial " << i;
  }
}

TEST(MultiprocessTest, FrozenWorkerIsReapedByHeartbeatWatchdog) {
  const auto trials = scenario_trials(4, 800);
  auto mp = mp_options("freeze@1", 4, 800, 2);
  mp.heartbeat_timeout_ms = 700;
  const auto report = dispatch_campaign(trials, mp);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 1u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kHardCrash);
  EXPECT_EQ(report.failures[0].term_signal, SIGKILL);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(report.completed[i] != 0, i != 1);
  }
}

TEST(MultiprocessTest, CorruptPipeFrameIsWorkerCrashNotCoordinatorAbort) {
  const auto trials = scenario_trials(5, 900);
  const auto report =
      dispatch_campaign(trials, mp_options("badcrc@1", 5, 900, 2));
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 1u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kHardCrash);
  EXPECT_NE(report.failures[0].what.find("corrupt"), std::string::npos);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(report.completed[i] != 0, i != 1);
  }
}

TEST(MultiprocessTest, WorkerKilledMidRecordIsHardCrash) {
  const auto trials = scenario_trials(5, 1000);
  const auto report =
      dispatch_campaign(trials, mp_options("tornkill@1", 5, 1000, 2));
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 1u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kHardCrash);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(report.completed[i] != 0, i != 1);
  }
}

TEST(MultiprocessTest, SoftFailureTravelsThePipeIntact) {
  const auto trials = scenario_trials(4, 1100);
  const auto report =
      dispatch_campaign(trials, mp_options("fail@3", 4, 1100, 2));
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 3u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kException);
  EXPECT_EQ(report.failures[0].what, "scenario soft failure");
  EXPECT_EQ(report.hard_crashes, 0u);  // the worker itself lived on
  EXPECT_EQ(report.worker_respawns, 0u);
}

TEST(MultiprocessTest, ResumesFromShardsCompactsAndRejectsForeignSeeds) {
  const std::string stem = temp_stem("mpresume");
  const std::uint64_t base = 1200;
  const std::size_t n = 6;
  {
    // A prior coordinator (SIGKILLed, say) left its shard with trials
    // 0-2 done, one foreign-seed record for trial 3, and a torn tail.
    auto shard = TrialJournal::open_append(CampaignJournal::shard_path(stem));
    for (std::uint32_t i = 0; i < 3; ++i) {
      shard.append(i, base + i, synthetic_result(base + i));
    }
    ExperimentResult poison = synthetic_result(9999);
    poison.cost = 999.0;
    shard.append(3, 31337, poison);  // wrong seed: must NOT be replayed
  }
  {
    std::FILE* file =
        std::fopen(CampaignJournal::shard_path(stem).c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const std::uint8_t torn[4] = {0x46, 0x4A, 0x00, 0x00};
    std::fwrite(torn, 1, sizeof torn, file);
    std::fclose(file);
  }

  const auto trials = scenario_trials(n, base);
  const auto report =
      dispatch_campaign(trials, mp_options("clean", n, base, 2, stem));
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(report.replayed, 3u);      // the three shard records
  EXPECT_TRUE(report.journal_torn);    // the torn shard tail was noticed
  EXPECT_EQ(report.attempts, 3u);      // only trials 3-5 actually ran
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(report.completed[i]) << "trial " << i;
    expect_identical(report.results[i], synthetic_result(base + i));
  }
  EXPECT_NE(report.results[3].cost, 999.0);  // foreign record rejected

  // Compaction: the shard is gone, the main journal holds everything,
  // and a re-run replays it all without spawning a single trial.
  EXPECT_FALSE(std::filesystem::exists(CampaignJournal::shard_path(stem)));
  const auto again =
      dispatch_campaign(trials, mp_options("clean", n, base, 3, stem));
  EXPECT_EQ(again.replayed, 6u);
  EXPECT_EQ(again.attempts, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    expect_identical(again.results[i], synthetic_result(base + i));
  }
  std::remove(stem.c_str());
}

TEST(MultiprocessTest, ShutdownWakesTheWorkerAndReapsIt) {
  // A worker heartbeating every 2 s must still exit the moment the
  // campaign is settled: shutdown wakes its heartbeat thread instead of
  // waiting out the sleep. And every worker is reaped before return.
  const auto trials = scenario_trials(2, 1300);
  auto mp = mp_options("clean", 2, 1300, 1);
  mp.heartbeat_interval_ms = 2000;
  mp.exec_argv.insert(mp.exec_argv.end(), {"--status-interval-ms", "2000"});
  const auto started = std::chrono::steady_clock::now();
  const auto report = dispatch_campaign(trials, mp);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_TRUE(report.all_completed());
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);  // no child left
  EXPECT_EQ(errno, ECHILD);
}

TEST(WorkerAgentTest, ExitsWhenTheCoordinatorHangsUpMidLease) {
  // A worker whose coordinator is gone must not finish its lease as an
  // orphan: it exits at its next write (the heartbeat), mid-trial.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  std::vector<std::string> args = {
      "/proc/self/exe", "--mp-scenario", "slow", "--mp-trials", "10",
      "--mp-seed",      "1",             "--threads", "1",
      "--worker-fd",    std::to_string(fds[1])};
  std::vector<char*> argp;
  for (auto& arg : args) argp.push_back(arg.data());
  argp.push_back(nullptr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::fcntl(fds[1], F_SETFD, 0);
    ::execv(argp[0], argp.data());
    ::_exit(127);
  }
  ::close(fds[1]);

  // Grant all ten 300 ms trials, then hang up once the first starts.
  ControlMessage grant;
  grant.kind = ControlKind::kLeaseGrant;
  grant.lease = 1;
  grant.text = "0-9";
  const auto frame = encode_control_message(grant);
  ASSERT_TRUE(write_all_fd(fds[0], frame.data(), frame.size()));
  TransportParser parser;
  bool started = false;
  while (!started) {
    std::uint8_t buf[4096];
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    ASSERT_GT(n, 0);
    parser.feed(buf, static_cast<std::size_t>(n));
    while (auto f = parser.next()) {
      started = started || (f->type == TransportFrame::Type::kStatus &&
                            f->record.kind == WorkerRecordKind::kTrialStart);
    }
  }
  ::close(fds[0]);

  const auto hung_up = std::chrono::steady_clock::now();
  int status = 0;
  pid_t reaped = 0;
  while (reaped == 0 && std::chrono::steady_clock::now() - hung_up <
                            std::chrono::seconds(3)) {
    reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  const auto lived = std::chrono::steady_clock::now() - hung_up;
  if (reaped == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  ASSERT_EQ(reaped, pid) << "worker outlived its coordinator by 3 s";
  EXPECT_TRUE(WIFEXITED(status));
  // Nowhere near the 2.7 s of lease left; the slack over one heartbeat
  // is for sanitizer runtimes, whose exit can linger a second (TSan).
  EXPECT_LT(lived, std::chrono::milliseconds(1500));
}

}  // namespace
}  // namespace fourbit::runner

int main(int argc, char** argv) {
  auto cli = fourbit::runner::consume_campaign_cli(argc, argv);
  if (cli.worker_fd >= 0) {
    fourbit::runner::mp_worker_main(argc, argv, std::move(cli));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
