// Tests of the campaign supervision layer: the failure taxonomy
// (assert / exception / timeout / invariant), per-trial isolation across
// thread counts, retry policies, the crash-safe journal (including torn
// records after a SIGKILL-style truncation, a SIGKILLed run resuming
// from its shard, and journal bytes that ignore --threads), the
// invariant auditor, and the hardened bench CLI helpers.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "runner/campaign.hpp"
#include "runner/describe.hpp"
#include "runner/journal.hpp"
#include "runner/supervisor.hpp"
#include "sim/invariant.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "topology/topology.hpp"

namespace fourbit::runner {
namespace {

/// A small, fast trial: a truncated Mirage testbed for a short run.
ExperimentConfig small_trial(std::uint64_t seed) {
  sim::Rng rng{seed};
  ExperimentConfig cfg;
  cfg.testbed = topology::mirage(rng);
  cfg.testbed.topology.nodes.resize(16);
  cfg.duration = sim::Duration::from_minutes(2.0);
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
  EXPECT_EQ(a.final_tree.mean_depth, b.final_tree.mean_depth);
  EXPECT_EQ(a.node_crashes, b.node_crashes);
  EXPECT_EQ(a.mean_time_to_reroute_s, b.mean_time_to_reroute_s);
  EXPECT_EQ(a.delivery_during_outage, b.delivery_during_outage);
}

/// The unsupervised baseline: every trial in turn on this thread.
std::vector<ExperimentResult> run_serially(
    const std::vector<ExperimentConfig>& trials) {
  std::vector<ExperimentResult> results;
  for (const auto& trial : trials) results.push_back(run_experiment(trial));
  return results;
}

SupervisorOptions supervisor_threads(std::size_t threads) {
  SupervisorOptions options;
  options.threads = threads;
  return options;
}

std::string temp_path(const char* name) {
  return (std::filesystem::path{::testing::TempDir()} /
          (std::string{"fourbit_"} + name + "_" +
           std::to_string(::getpid()) + ".journal"))
      .string();
}

// ---- assert handler ---------------------------------------------------

TEST(AssertHandlerTest, ThrowingHandlerConvertsAssertToException) {
  const ScopedAssertHandler guard{throwing_assert_handler};
  EXPECT_THROW(FOURBIT_ASSERT(false, "injected failure"), AssertionError);
}

TEST(AssertHandlerTest, MessageCarriesExpressionFileAndDetail) {
  const ScopedAssertHandler guard{throwing_assert_handler};
  try {
    FOURBIT_ASSERT(1 == 2, "the detail");
    FAIL() << "assert did not throw";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("supervisor_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("the detail"), std::string::npos);
  }
}

TEST(AssertHandlerTest, ScopedHandlerRestoresPreviousOnExit) {
  {
    const ScopedAssertHandler guard{throwing_assert_handler};
  }
  // Outside the scope the default (abort) handler is back.
  EXPECT_DEATH(FOURBIT_ASSERT(false, "aborts again"), "fourbit assertion");
}

TEST(AssertHandlerTest, DefaultHandlerAborts) {
  EXPECT_DEATH(FOURBIT_ASSERT(false, "boom"), "fourbit assertion failed");
}

// ---- simulator budget -------------------------------------------------

TEST(SimBudgetTest, EventBudgetThrowsBudgetExceeded) {
  sim::Simulator sim;
  sim::SimBudget budget;
  budget.max_events = 10;
  sim.set_budget(budget);
  std::function<void()> tick = [&] {
    sim.schedule_in(sim::Duration::from_us(1), tick);
  };
  sim.schedule_in(sim::Duration::from_us(1), tick);
  try {
    sim.run_for(sim::Duration::from_seconds(1.0));
    FAIL() << "budget did not fire";
  } catch (const sim::BudgetExceededError& e) {
    EXPECT_EQ(e.which(), sim::BudgetExceededError::Which::kEvents);
    EXPECT_LE(sim.events_executed(), 10u);
  }
}

TEST(SimBudgetTest, WallClockBudgetCancelsSpinningRun) {
  sim::Simulator sim;
  sim::SimBudget budget;
  budget.max_wall_ms = 5;
  sim.set_budget(budget);
  std::function<void()> tick = [&] {
    sim.schedule_in(sim::Duration::from_us(1), tick);
  };
  sim.schedule_in(sim::Duration::from_us(1), tick);
  // The event supply is endless; only the wall-clock watchdog can end
  // this run.
  try {
    sim.run();
    FAIL() << "budget did not fire";
  } catch (const sim::BudgetExceededError& e) {
    EXPECT_EQ(e.which(), sim::BudgetExceededError::Which::kWallClock);
  }
}

TEST(SimBudgetTest, UnlimitedBudgetRunsToCompletion) {
  sim::Simulator sim;
  int fired = 0;
  sim.schedule_in(sim::Duration::from_us(5), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

// ---- failure taxonomy through run_supervised --------------------------

TEST(SupervisorTest, ThrowingTrialBecomesExceptionFailure) {
  const auto trials = Campaign::seed_sweep(small_trial(42), 4);
  const auto baseline = run_serially(trials);

  for (const std::size_t threads : {1u, 4u}) {
    SupervisorOptions options;
    options.threads = threads;
    options.run_trial = [&](const ExperimentConfig& cfg) {
      if (cfg.seed == trials[1].seed) {
        throw std::runtime_error("injected trial explosion");
      }
      return run_experiment(cfg);
    };
    const auto report = run_supervised(trials, options);

    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].kind, FailureKind::kException);
    EXPECT_EQ(report.failures[0].trial_index, 1u);
    EXPECT_EQ(report.failures[0].seed, trials[1].seed);
    EXPECT_NE(report.failures[0].what.find("injected trial explosion"),
              std::string::npos);
    EXPECT_FALSE(report.completed[1]);

    // Sibling trials are untouched and bit-identical to an
    // unsupervised campaign.
    for (const std::size_t i : {0u, 2u, 3u}) {
      ASSERT_TRUE(report.completed[i]);
      expect_identical(report.results[i], baseline[i]);
    }
  }
}

TEST(SupervisorTest, AssertingTrialBecomesAssertFailure) {
  const auto trials = Campaign::seed_sweep(small_trial(50), 3);
  SupervisorOptions options;
  options.threads = 3;
  options.run_trial = [&](const ExperimentConfig& cfg) {
    if (cfg.seed == trials[2].seed) {
      FOURBIT_ASSERT(false, "injected assertion");
    }
    return run_experiment(cfg);
  };
  const auto report = run_supervised(trials, options);

  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kAssert);
  EXPECT_EQ(report.failures[0].trial_index, 2u);
  EXPECT_NE(report.failures[0].what.find("injected assertion"),
            std::string::npos);
  EXPECT_TRUE(report.completed[0]);
  EXPECT_TRUE(report.completed[1]);
}

TEST(SupervisorTest, EventBudgetTimeoutIsClassifiedAndIsolated) {
  auto trials = Campaign::seed_sweep(small_trial(60), 3);
  // Trial 1 gets an event budget far below what a 2-minute run needs;
  // the others run unbounded.
  trials[1].budget.max_events = 500;
  const auto baseline_0 = run_experiment(trials[0]);

  SupervisorOptions options;
  options.threads = 2;
  const auto report = run_supervised(trials, options);

  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kTimeout);
  EXPECT_EQ(report.failures[0].trial_index, 1u);
  ASSERT_TRUE(report.completed[0]);
  ASSERT_TRUE(report.completed[2]);
  expect_identical(report.results[0], baseline_0);
}

TEST(SupervisorTest, CampaignWideBudgetYieldsToExplicitTrialBudget) {
  auto trials = Campaign::seed_sweep(small_trial(70), 2);
  // Trial 0 carries its own generous limit; trial 1 inherits the tiny
  // campaign-wide one and times out.
  trials[0].budget.max_events = 50'000'000;

  SupervisorOptions options;
  options.threads = 1;
  options.trial_budget.max_events = 500;
  const auto report = run_supervised(trials, options);

  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 1u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kTimeout);
  EXPECT_TRUE(report.completed[0]);
}

TEST(SupervisorTest, InvariantViolationIsClassified) {
  const auto trials = Campaign::seed_sweep(small_trial(80), 2);
  SupervisorOptions options;
  options.threads = 1;
  options.run_trial = [&](const ExperimentConfig& cfg) {
    if (cfg.seed == trials[0].seed) {
      throw sim::InvariantViolationError{"neighbor-table-bound",
                                         "injected violation"};
    }
    return run_experiment(cfg);
  };
  const auto report = run_supervised(trials, options);

  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kInvariant);
  EXPECT_NE(report.failures[0].what.find("neighbor-table-bound"),
            std::string::npos);
  EXPECT_TRUE(report.completed[1]);
}

TEST(SupervisorTest, SupervisedCleanCampaignMatchesUnsupervised) {
  const auto trials = Campaign::seed_sweep(small_trial(90), 4);
  const auto baseline = run_serially(trials);
  const auto report = run_supervised(trials, supervisor_threads(4));

  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.attempts, 4u);
  EXPECT_EQ(report.retries, 0u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    expect_identical(report.results[i], baseline[i]);
  }
}

// ---- retries ----------------------------------------------------------

TEST(SupervisorTest, RetryPolicyRetriesUntilSuccess) {
  const auto trials = Campaign::seed_sweep(small_trial(100), 3);
  std::atomic<int> flaky_attempts{0};

  SupervisorOptions options;
  options.threads = 3;
  options.retry.max_attempts = 3;
  options.retry.classify = [](const TrialFailure&) { return true; };
  options.run_trial = [&](const ExperimentConfig& cfg) {
    // Trial 1 fails twice, then succeeds on its third attempt.
    if (cfg.seed == trials[1].seed &&
        flaky_attempts.fetch_add(1) < 2) {
      throw std::runtime_error("transient failure");
    }
    return run_experiment(cfg);
  };
  const auto report = run_supervised(trials, options);

  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.attempts, 5u);  // 3 trials + 2 retries
}

TEST(SupervisorTest, RetryExhaustionKeepsLastFailure) {
  const auto trials = Campaign::seed_sweep(small_trial(110), 1);
  SupervisorOptions options;
  options.threads = 1;
  options.retry.max_attempts = 3;
  options.retry.classify = [](const TrialFailure&) { return true; };
  options.run_trial = [](const ExperimentConfig&) -> ExperimentResult {
    throw std::runtime_error("always fails");
  };
  const auto report = run_supervised(trials, options);

  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].attempt, 3u);
  EXPECT_EQ(report.attempts, 3u);
  EXPECT_EQ(report.retries, 2u);
}

TEST(SupervisorTest, DefaultPolicyDoesNotRetryDeterministicFailures) {
  const auto trials = Campaign::seed_sweep(small_trial(120), 1);
  SupervisorOptions options;
  options.threads = 1;
  options.retry.max_attempts = 5;  // default classify: timeouts only
  std::atomic<int> calls{0};
  options.run_trial = [&](const ExperimentConfig&) -> ExperimentResult {
    ++calls;
    throw std::runtime_error("deterministic bug");
  };
  const auto report = run_supervised(trials, options);

  EXPECT_EQ(calls.load(), 1);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.retries, 0u);
}

// ---- failure accounting in summarize / describe ------------------------

TEST(SupervisorTest, SummarizeCountsFailuresAndAggregatesCompletedOnly) {
  const auto trials = Campaign::seed_sweep(small_trial(130), 3);
  SupervisorOptions options;
  options.threads = 1;
  options.run_trial = [&](const ExperimentConfig& cfg) {
    if (cfg.seed == trials[1].seed) {
      throw std::runtime_error("dead trial");
    }
    return run_experiment(cfg);
  };
  const auto report = run_supervised(trials, options);

  const auto summary = summarize(report);
  EXPECT_EQ(summary.trials, 3u);
  EXPECT_EQ(summary.completed, 2u);
  EXPECT_EQ(summary.attempts, 3u);
  EXPECT_EQ(summary.failures_total(), 1u);
  EXPECT_EQ(summary.failures_by_kind[static_cast<std::size_t>(
                FailureKind::kException)],
            1u);
  EXPECT_EQ(summary.cost.n, 2u);  // the dead trial contributes nothing

  const auto text = describe(report);
  EXPECT_NE(text.find("2 of 3 completed"), std::string::npos);
  EXPECT_NE(text.find("1 exception"), std::string::npos);
  EXPECT_NE(text.find("dead trial"), std::string::npos);
}

TEST(SupervisorTest, PlainSummarizeReportsCleanAccounting) {
  ExperimentResult r;
  r.cost = 2.0;
  const auto summary = summarize(std::vector<ExperimentResult>{r, r});
  EXPECT_EQ(summary.trials, 2u);
  EXPECT_EQ(summary.completed, 2u);
  EXPECT_EQ(summary.attempts, 2u);
  EXPECT_EQ(summary.failures_total(), 0u);
}

// ---- journal ----------------------------------------------------------

TEST(JournalTest, RoundTripsResultsBitExactly) {
  const std::string path = temp_path("roundtrip");
  std::filesystem::remove(path);

  const auto trials = Campaign::seed_sweep(small_trial(140), 2);
  const auto baseline = run_serially(trials);
  {
    auto journal = TrialJournal::open_append(path);
    journal.append(0, trials[0].seed, baseline[0]);
    journal.append(1, trials[1].seed, baseline[1]);
  }

  const auto loaded = TrialJournal::load(path);
  EXPECT_FALSE(loaded.torn);
  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_EQ(loaded.entries[0].trial_index, 0u);
  EXPECT_EQ(loaded.entries[1].seed, trials[1].seed);
  expect_identical(loaded.entries[0].result, baseline[0]);
  expect_identical(loaded.entries[1].result, baseline[1]);
  std::filesystem::remove(path);
}

TEST(JournalTest, MissingFileIsEmptyJournal) {
  const auto loaded = TrialJournal::load(temp_path("never_written"));
  EXPECT_TRUE(loaded.entries.empty());
  EXPECT_FALSE(loaded.torn);
}

TEST(JournalTest, TornLastRecordIsDetectedAndDropped) {
  const std::string path = temp_path("torn");
  std::filesystem::remove(path);

  const auto trials = Campaign::seed_sweep(small_trial(150), 2);
  const auto baseline = run_serially(trials);
  {
    auto journal = TrialJournal::open_append(path);
    journal.append(0, trials[0].seed, baseline[0]);
    journal.append(1, trials[1].seed, baseline[1]);
  }

  // A SIGKILL mid-write leaves a truncated tail.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 7);

  const auto loaded = TrialJournal::load(path);
  EXPECT_TRUE(loaded.torn);
  ASSERT_EQ(loaded.entries.size(), 1u);
  expect_identical(loaded.entries[0].result, baseline[0]);
  std::filesystem::remove(path);
}

TEST(JournalTest, CorruptPayloadFailsCrcAndStopsReplay) {
  const std::string path = temp_path("corrupt");
  std::filesystem::remove(path);

  const auto trials = Campaign::seed_sweep(small_trial(160), 2);
  const auto baseline = run_serially(trials);
  {
    auto journal = TrialJournal::open_append(path);
    journal.append(0, trials[0].seed, baseline[0]);
    journal.append(1, trials[1].seed, baseline[1]);
  }

  // Flip one payload byte inside the first record.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 20, SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, 20, SEEK_SET), 0);
    std::fputc(byte ^ 0xFF, f);
    std::fclose(f);
  }

  const auto loaded = TrialJournal::load(path);
  EXPECT_TRUE(loaded.torn);
  EXPECT_TRUE(loaded.entries.empty());
  std::filesystem::remove(path);
}

TEST(SupervisorTest, JournaledCampaignResumesBitIdentical) {
  const std::string path = temp_path("resume");
  std::filesystem::remove(path);

  const auto trials = Campaign::seed_sweep(small_trial(170), 4);
  const auto baseline = run_serially(trials);

  // First launch: trial 3 dies, the other three are journaled.
  {
    SupervisorOptions options;
    options.threads = 2;
    options.journal_path = path;
    options.run_trial = [&](const ExperimentConfig& cfg) {
      if (cfg.seed == trials[3].seed) {
        throw std::runtime_error("process about to die");
      }
      return run_experiment(cfg);
    };
    const auto report = run_supervised(trials, options);
    EXPECT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.replayed, 0u);
  }

  // Relaunch from the 3-record journal: only the missing trial runs;
  // everything is bit-identical to an uninterrupted campaign, at both
  // thread counts.
  const std::string snapshot = path + ".snap";
  std::filesystem::copy_file(path, snapshot);
  for (const std::size_t threads : {1u, 4u}) {
    std::filesystem::copy_file(
        snapshot, path, std::filesystem::copy_options::overwrite_existing);
    std::atomic<int> executed{0};
    SupervisorOptions options;
    options.threads = threads;
    options.journal_path = path;
    options.run_trial = [&](const ExperimentConfig& cfg) {
      ++executed;
      EXPECT_EQ(cfg.seed, trials[3].seed)
          << "a journaled trial was re-run";
      return run_experiment(cfg);
    };
    const auto report = run_supervised(trials, options);

    EXPECT_TRUE(report.all_completed());
    EXPECT_EQ(report.replayed, 3u);
    EXPECT_EQ(executed.load(), 1);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      ASSERT_TRUE(report.completed[i]);
      expect_identical(report.results[i], baseline[i]);
    }
  }
  std::filesystem::remove(path);
  std::filesystem::remove(snapshot);
}

TEST(SupervisorTest, ResumeAfterTornRecordRerunsOnlyTornTrial) {
  const std::string path = temp_path("torn_resume");
  std::filesystem::remove(path);

  const auto trials = Campaign::seed_sweep(small_trial(180), 3);
  const auto baseline = run_serially(trials);
  {
    SupervisorOptions options;
    options.threads = 1;
    options.journal_path = path;
    const auto report = run_supervised(trials, options);
    ASSERT_TRUE(report.all_completed());
  }

  // Tear the last record (SIGKILL mid-append).
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 5);

  std::atomic<int> executed{0};
  SupervisorOptions options;
  options.threads = 2;
  options.journal_path = path;
  options.run_trial = [&](const ExperimentConfig& cfg) {
    ++executed;
    return run_experiment(cfg);
  };
  const auto report = run_supervised(trials, options);

  EXPECT_TRUE(report.journal_torn);
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.replayed, 2u);
  EXPECT_EQ(executed.load(), 1);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    expect_identical(report.results[i], baseline[i]);
  }
  std::filesystem::remove(path);
}

TEST(SupervisorTest, JournalRecordsWithForeignSeedsAreIgnored) {
  const std::string path = temp_path("foreign");
  std::filesystem::remove(path);

  const auto trials = Campaign::seed_sweep(small_trial(190), 2);
  const auto baseline = run_serially(trials);
  {
    // A journal written by a different campaign: same indices, other
    // seeds. Trusting it would silently splice foreign results in.
    auto journal = TrialJournal::open_append(path);
    ExperimentResult bogus;
    bogus.cost = 12345.0;
    journal.append(0, trials[0].seed + 999, bogus);
  }

  SupervisorOptions options;
  options.threads = 1;
  options.journal_path = path;
  const auto report = run_supervised(trials, options);

  EXPECT_EQ(report.replayed, 0u);
  EXPECT_TRUE(report.all_completed());
  expect_identical(report.results[0], baseline[0]);
  std::filesystem::remove(path);
}

TEST(SupervisorTest, JournalBytesIdenticalAcrossThreadCounts) {
  // On four threads the later trials finish first; the journal must not
  // record that order.
  const auto trials = Campaign::seed_sweep(small_trial(230), 4);
  const auto journal_bytes = [&](std::size_t threads) {
    const std::string path =
        temp_path(("threads" + std::to_string(threads)).c_str());
    std::filesystem::remove(path);
    SupervisorOptions options;
    options.threads = threads;
    options.journal_path = path;
    options.run_trial = [&](const ExperimentConfig& cfg) {
      const auto later = trials.back().seed - cfg.seed;
      std::this_thread::sleep_for(std::chrono::milliseconds(60 * later));
      return run_experiment(cfg);
    };
    EXPECT_TRUE(run_supervised(trials, options).all_completed());
    EXPECT_FALSE(std::filesystem::exists(CampaignJournal::shard_path(path)));
    auto bytes = read_file(path);
    std::filesystem::remove(path);
    return bytes;
  };
  const auto serial = journal_bytes(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, journal_bytes(4));
}

TEST(SupervisorTest, SigkilledRunResumesFromTheShardBitIdentical) {
  const std::string path = temp_path("sigkill");
  const std::string ref_path = temp_path("sigkill_ref");
  for (const auto& p : {path, ref_path}) {
    std::filesystem::remove(p);
    std::filesystem::remove(CampaignJournal::shard_path(p));
  }
  const auto trials = Campaign::seed_sweep(small_trial(240), 6);

  // First launch, in a fork: trials 0-2 finish and say so through a
  // pipe, trials 3+ hang until the SIGKILL.
  int progress[2];
  ASSERT_EQ(::pipe(progress), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(progress[0]);
    SupervisorOptions options;
    options.threads = 2;
    options.journal_path = path;
    options.run_trial = [&](const ExperimentConfig& cfg) {
      if (cfg.seed >= trials[3].seed) {
        std::this_thread::sleep_for(std::chrono::seconds(60));
      }
      return run_experiment(cfg);
    };
    options.on_trial_done = [&](const TrialProgress&) {
      const char byte = 1;
      (void)!::write(progress[1], &byte, 1);
    };
    (void)run_supervised(trials, options);
    ::_exit(0);
  }
  ::close(progress[1]);
  std::size_t reported = 0;
  char byte = 0;
  while (reported < 3 && ::read(progress[0], &byte, 1) == 1) ++reported;
  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
  ::close(progress[0]);
  ASSERT_EQ(reported, 3u);
  // The three results are durable in the shard; the main journal is
  // only extended when a campaign finishes.
  EXPECT_EQ(TrialJournal::load(CampaignJournal::shard_path(path))
                .entries.size(),
            3u);
  EXPECT_TRUE(TrialJournal::load(path).entries.empty());

  // Relaunch: only the three unfinished trials run, and results and
  // journal bytes equal an uninterrupted single-thread run's.
  std::atomic<int> executed{0};
  SupervisorOptions options;
  options.threads = 3;
  options.journal_path = path;
  options.run_trial = [&](const ExperimentConfig& cfg) {
    ++executed;
    return run_experiment(cfg);
  };
  const auto report = run_supervised(trials, options);
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.replayed, 3u);
  EXPECT_EQ(executed.load(), 3);
  const auto baseline = run_serially(trials);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    ASSERT_TRUE(report.completed[i]);
    expect_identical(report.results[i], baseline[i]);
  }

  SupervisorOptions reference;
  reference.threads = 1;
  reference.journal_path = ref_path;
  EXPECT_TRUE(run_supervised(trials, reference).all_completed());
  EXPECT_EQ(read_file(path), read_file(ref_path));
  EXPECT_FALSE(std::filesystem::exists(CampaignJournal::shard_path(path)));
  std::filesystem::remove(path);
  std::filesystem::remove(ref_path);
}

// ---- invariant auditor -------------------------------------------------

TEST(InvariantAuditorTest, PassingChecksRunOnCadence) {
  sim::Simulator sim;
  sim::InvariantAuditor auditor{sim};
  int checked = 0;
  auditor.add("always-ok", [&]() -> std::optional<std::string> {
    ++checked;
    return std::nullopt;
  });
  auditor.start(sim::Duration::from_seconds(1.0));
  sim.run_for(sim::Duration::from_seconds(10.0));
  EXPECT_EQ(auditor.audits_run(), 10u);
  EXPECT_EQ(checked, 10);
}

TEST(InvariantAuditorTest, ViolationThrowsWithNameAndDetail) {
  sim::Simulator sim;
  sim::InvariantAuditor auditor{sim};
  auditor.add("always-ok", [] { return std::optional<std::string>{}; });
  auditor.add("broken", [] {
    return std::optional<std::string>{"state went sideways"};
  });
  auditor.start(sim::Duration::from_seconds(1.0));
  try {
    sim.run_for(sim::Duration::from_seconds(5.0));
    FAIL() << "violation did not throw";
  } catch (const sim::InvariantViolationError& e) {
    EXPECT_EQ(e.invariant(), "broken");
    EXPECT_NE(std::string{e.what()}.find("state went sideways"),
              std::string::npos);
  }
}

TEST(InvariantAuditorTest, StopCancelsFutureAudits) {
  sim::Simulator sim;
  sim::InvariantAuditor auditor{sim};
  auditor.add("always-ok", [] { return std::optional<std::string>{}; });
  auditor.start(sim::Duration::from_seconds(1.0));
  sim.run_for(sim::Duration::from_seconds(3.0));
  auditor.stop();
  sim.run_for(sim::Duration::from_seconds(10.0));
  EXPECT_EQ(auditor.audits_run(), 3u);
}

// The catalog wired by run_experiment must hold on a healthy run — in
// every profile, with faults injected, and with the table squeezed.
TEST(InvariantAuditorTest, HealthyTrialsPassTheFullCatalog) {
  for (const auto profile :
       {Profile::kFourBit, Profile::kMultihopLqi, Profile::kCtpUnconstrained}) {
    auto cfg = small_trial(200);
    cfg.profile = profile;
    cfg.table_capacity = 4;  // admission churn stresses the bound checks
    cfg.audit_invariants = true;
    cfg.audit_interval = sim::Duration::from_seconds(5.0);
    cfg.faults.node_crashes = 2;
    cfg.faults.crash_downtime = sim::Duration::from_seconds(20.0);
    cfg.faults.window_start = sim::Time::from_us(30'000'000);
    cfg.faults.window_end = sim::Time::from_us(90'000'000);

    SupervisorOptions options;
    options.threads = 1;
    const auto report = run_supervised({cfg}, options);
    EXPECT_TRUE(report.all_completed())
        << "profile " << static_cast<int>(profile) << ": "
        << (report.failures.empty() ? "" : report.failures[0].what);
  }
}

TEST(InvariantAuditorTest, AuditedTrialIsBitIdenticalToUnaudited) {
  // The auditor only reads state; turning it on must not perturb the
  // simulation.
  auto audited = small_trial(210);
  audited.audit_invariants = true;
  audited.audit_interval = sim::Duration::from_seconds(5.0);
  const auto a = run_experiment(audited);
  const auto b = run_experiment(small_trial(210));
  expect_identical(a, b);
}

// ---- bench CLI helpers -------------------------------------------------

TEST(CliFlagTest, ConsumeFlagStripsNameAndValue) {
  char prog[] = "bench";
  char a1[] = "30";
  char name[] = "--journal";
  char value[] = "trials.wal";
  char a2[] = "5";
  char* argv[] = {prog, a1, name, value, a2};
  int argc = 5;
  const auto got = consume_flag(argc, argv, "--journal");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "trials.wal");
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "30");
  EXPECT_STREQ(argv[2], "5");
  EXPECT_FALSE(consume_flag(argc, argv, "--journal").has_value());
}

TEST(CliFlagTest, MissingValueExitsNonzero) {
  char prog[] = "bench";
  char name[] = "--journal";
  char* argv[] = {prog, name};
  int argc = 2;
  EXPECT_EXIT((void)consume_flag(argc, argv, "--journal"),
              ::testing::ExitedWithCode(2), "expects a value");
}

TEST(CliFlagTest, ThreadsFlagRejectsJunk) {
  char prog[] = "bench";
  char flag[] = "--threads";
  char junk[] = "fast";
  char* argv[] = {prog, flag, junk};
  int argc = 3;
  EXPECT_EXIT((void)consume_threads_flag(argc, argv),
              ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(CliFlagTest, ThreadsFlagRejectsNegativeAndTrailingJunk) {
  {
    char prog[] = "bench";
    char flag[] = "--threads";
    char neg[] = "-4";
    char* argv[] = {prog, flag, neg};
    int argc = 3;
    EXPECT_EXIT((void)consume_threads_flag(argc, argv),
                ::testing::ExitedWithCode(2), "non-negative integer");
  }
  {
    char prog[] = "bench";
    char flag[] = "--threads";
    char mixed[] = "4x";
    char* argv[] = {prog, flag, mixed};
    int argc = 3;
    EXPECT_EXIT((void)consume_threads_flag(argc, argv),
                ::testing::ExitedWithCode(2), "non-negative integer");
  }
}

TEST(CliFlagTest, BareTrailingThreadsFlagExitsNonzero) {
  char prog[] = "bench";
  char a1[] = "30";
  char flag[] = "--threads";
  char* argv[] = {prog, a1, flag};
  int argc = 3;
  EXPECT_EXIT((void)consume_threads_flag(argc, argv),
              ::testing::ExitedWithCode(2), "expects a value");
}

TEST(CliFlagTest, CampaignCliConsumesAllSupervisorFlags) {
  char prog[] = "bench";
  char a1[] = "25";
  char t[] = "--threads";
  char tv[] = "8";
  char j[] = "--journal";
  char jv[] = "w.wal";
  char m[] = "--max-trial-ms";
  char mv[] = "60000";
  char r[] = "--retries";
  char rv[] = "2";
  char a2[] = "3";
  char* argv[] = {prog, a1, t, tv, j, jv, m, mv, r, rv, a2};
  int argc = 11;
  const auto cli = consume_campaign_cli(argc, argv);
  EXPECT_EQ(cli.threads, 8u);
  EXPECT_EQ(cli.journal, "w.wal");
  EXPECT_EQ(cli.max_trial_ms, 60000u);
  EXPECT_EQ(cli.retries, 2u);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "25");
  EXPECT_STREQ(argv[2], "3");

  const auto options = cli.supervisor_options();
  EXPECT_EQ(options.threads, 8u);
  EXPECT_EQ(options.journal_path, "w.wal");
  EXPECT_EQ(options.trial_budget.max_wall_ms, 60000);
  EXPECT_EQ(options.retry.max_attempts, 3u);
}

}  // namespace
}  // namespace fourbit::runner
