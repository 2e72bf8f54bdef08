// Campaign supervision: per-trial isolation, watchdog timeouts,
// retries, and crash-safe checkpoint/resume.
//
// Trusting every trial is wrong at fault-matrix scale: one trial that
// trips FOURBIT_ASSERT, throws, or wedges in the event loop would kill
// the whole process and discard every completed sibling. run_supervised
// runs a trial list on a thread pool and wraps each trial so that
//
//   * a failed assertion (per-thread throwing handler, common/assert.hpp),
//   * any escaping exception,
//   * an exhausted sim::SimBudget (event count or wall clock), and
//   * a sim::InvariantAuditor violation
//
// each become a structured TrialFailure in the CampaignReport instead
// of a dead pool. Failed trials may be retried under a RetryPolicy, and
// completed results are checkpointed to the campaign journal
// (CampaignJournal, journal.hpp) so a killed campaign resumes where it
// died — bit-identical to an uninterrupted run at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry.hpp"

namespace fourbit::runner {

class StatusBoard;       // runner/status.hpp
struct DispatchOptions;  // runner/dispatch.hpp

/// Why a trial died. Order matters: it indexes
/// CampaignSummary::failures_by_kind.
enum class FailureKind : std::uint8_t {
  kAssert = 0,    // FOURBIT_ASSERT tripped inside the trial
  kException = 1, // any other exception escaped the trial
  kTimeout = 2,   // sim::SimBudget exhausted (hung / runaway trial)
  kInvariant = 3, // sim::InvariantAuditor found corrupted live state
  /// The worker *process* running the trial died — fatal signal
  /// (SIGSEGV, SIGBUS, OOM-kill), std::terminate, or a nonzero exit —
  /// a failure mode only the multi-process pool (worker.hpp) can
  /// observe; in-process supervision dies with the trial.
  kHardCrash = 4,
};

inline constexpr std::size_t kFailureKindCount = 5;

[[nodiscard]] std::string_view failure_kind_name(FailureKind kind);

/// One terminal trial failure (after retries, if any).
struct TrialFailure {
  FailureKind kind = FailureKind::kException;
  std::string what;            // the exception's message
  std::size_t trial_index = 0;
  std::uint64_t seed = 0;
  std::size_t attempt = 1;     // 1-based attempt that produced this failure
  /// Fatal signal that killed the worker process (kHardCrash only;
  /// 0 = none, e.g. a plain nonzero exit).
  int term_signal = 0;
  /// The simulator's flight recorder at the moment of death (oldest
  /// first, up to sim::TelemetryContext::kFlightCapacity events) — what
  /// the sim was doing right before it failed, even with no trace file.
  /// For hard crashes this is the worker's last *flushed* snapshot
  /// (experiment.hpp flight_flush fields), when one was available.
  std::vector<sim::TelemetryEvent> flight;
};

/// Capped exponential backoff with seed-derived deterministic jitter.
/// delay_ms is a pure function of (attempt, seed): the same trial backs
/// off identically at any --threads / --workers value, so retry timing
/// can never smuggle nondeterminism into a campaign.
struct Backoff {
  std::uint64_t base_ms = 0;   // 0 = no delay (retry immediately)
  std::uint64_t cap_ms = 10'000;
  /// Jitter fraction in [0, 1): the delay is scaled by a deterministic
  /// factor in [1 - jitter, 1 + jitter) derived from the seed, so a
  /// fleet of crashed workers never thunders back in lockstep.
  double jitter = 0.25;

  /// Delay before retry `attempt` (1-based: the delay after the
  /// attempt'th failure). Doubles per attempt from base_ms, capped at
  /// cap_ms before and after jitter.
  [[nodiscard]] std::uint64_t delay_ms(std::size_t attempt,
                                       std::uint64_t seed) const;
};

struct RetryPolicy {
  /// Total attempts per trial (1 = never retry).
  std::size_t max_attempts = 1;
  /// Decides whether a given failure is worth retrying (still capped by
  /// max_attempts). Default: wall-clock timeouts only — they are the one
  /// machine-dependent failure; everything else in a trial is a pure
  /// function of its config and would fail identically again.
  std::function<bool(const TrialFailure&)> classify;
  /// Wall-clock delay between attempts (default: immediate). The same
  /// policy shape governs worker respawns in the multi-process pool.
  Backoff backoff;

  [[nodiscard]] bool should_retry(const TrialFailure& failure) const {
    if (classify) return classify(failure);
    return failure.kind == FailureKind::kTimeout;
  }
};

struct SupervisorOptions {
  /// Worker threads; 0 = one per hardware core.
  std::size_t threads = 0;
  /// Optional per-trial completion callback (see TrialProgress).
  std::function<void(const TrialProgress&)> on_trial_done;
  /// Watchdog budget applied to every trial; a config's own nonzero
  /// limits take precedence field by field. Zero = unlimited.
  sim::SimBudget trial_budget;
  RetryPolicy retry;
  /// Main result journal (CampaignJournal, journal.hpp); empty = no
  /// journal. Records already present for these trials (matching index
  /// and seed) are replayed instead of re-run.
  std::string journal_path;
  /// Trial executor; defaults to run_experiment. Tests substitute
  /// throwing / asserting / hanging trials here.
  std::function<ExperimentResult(const ExperimentConfig&)> run_trial;

  /// Run only these trial indices (empty = all). A worker or host agent
  /// (dispatch.hpp) runs each lease the coordinator grants it this way;
  /// unlisted slots stay untouched in the report.
  std::vector<std::size_t> subset;
  /// Invoked on the worker thread immediately before a trial's first
  /// attempt (workers stream it to the coordinator so a process death
  /// can be attributed to the trials that were in flight).
  std::function<void(std::size_t, const ExperimentConfig&)> on_trial_start;
  /// When non-empty, every trial periodically flushes its flight
  /// recorder to "<base>.t<index>.flight" (worker.hpp snapshot format)
  /// so a hard-crashed process leaves its sim's last moments behind.
  /// The file is removed when the trial settles in-process.
  std::string flight_flush_base;

  /// Telemetry applied to every trial. When trace_path_base is
  /// non-empty, each trial streams its events to its own file named by
  /// trial_trace_path(base, index, seed) — per-trial files, so parallel
  /// workers never interleave and output is byte-identical at any
  /// --threads value. A config's own non-empty trace_path wins.
  std::string trace_path_base;
  sim::TraceLevel trace_level = sim::TraceLevel::kInfo;
  std::vector<std::uint16_t> trace_nodes;

  /// Live observability (runner/status.hpp). A non-null board receives
  /// trial lifecycle events, per-attempt wall times, and each trial's
  /// telemetry registry (mid-trial and at settle). Strictly off-band:
  /// results, stdout, reports, and journal bytes are unaffected.
  StatusBoard* status = nullptr;
  /// Arm wall-clock phase timers in every trial (nondeterministic
  /// samples; see ExperimentConfig::profile_phases).
  bool profile_phases = false;
};

/// Per-trial trace file name: "<stem>-t<index>-s<seed>.jsonl" where
/// stem is `base` with any trailing ".jsonl" stripped.
[[nodiscard]] std::string trial_trace_path(const std::string& base,
                                           std::size_t index,
                                           std::uint64_t seed);

/// Per-trial flight-recorder snapshot file: "<base>.t<index>.flight"
/// (see SupervisorOptions::flight_flush_base and worker.hpp).
[[nodiscard]] std::string flight_snapshot_path(const std::string& base,
                                               std::size_t index);

/// Per-host health accounting from a distributed campaign
/// (dispatch.hpp): how each --hosts agent behaved. Deterministic per
/// host list on clean runs (all-zero rows); populated so describe() and
/// `fourbit.status/1` can attribute losses to the host that caused them.
struct HostHealth {
  std::string name;             // "host:port"
  std::uint64_t completed = 0;  // trials this host settled
  std::uint64_t losses = 0;     // sessions lost (disconnect/expiry/corrupt)
  std::uint64_t fruitless = 0;  // consecutive fruitless sessions at the end
  bool retired = false;         // crash-loop quarantined
};

/// What a supervised campaign produced. results[i] belongs to trials[i]
/// and is meaningful iff completed[i].
struct CampaignReport {
  std::vector<ExperimentResult> results;
  std::vector<std::uint8_t> completed;  // 1 = results[i] is valid
  /// Terminal failures, sorted by trial_index (deterministic across
  /// thread counts).
  std::vector<TrialFailure> failures;
  std::uint64_t attempts = 0;  // trial executions, including retries
  std::uint64_t retries = 0;
  std::uint64_t replayed = 0;  // trials restored from the journal
  /// Multi-process pool only (worker.hpp): worker deaths observed and
  /// workers brought back after one.
  std::uint64_t hard_crashes = 0;
  std::uint64_t worker_respawns = 0;
  /// Distributed dispatch only (dispatch.hpp): host sessions lost
  /// (disconnect, heartbeat silence, corrupt stream) and leases handed
  /// back to the pool because their host died under them.
  std::uint64_t host_losses = 0;
  std::uint64_t lease_reassignments = 0;
  /// One row per --hosts agent (distributed dispatch only; empty on
  /// local campaigns). Order matches the --hosts list.
  std::vector<HostHealth> host_health;
  /// Journal append failures during this run (ENOSPC and friends): the
  /// journal latched disabled and the campaign finished unjournaled
  /// (see TrialJournal::append). Zero on a healthy run.
  std::uint64_t journal_write_failures = 0;
  /// The journal ended in a torn record (expected after a SIGKILL
  /// mid-write); the torn trial was re-run.
  bool journal_torn = false;

  [[nodiscard]] bool all_completed() const { return failures.empty(); }
};

/// Runs every trial across the pool with full supervision. Failures are
/// confined to their own slot: sibling trials run to completion and are
/// bit-identical to an unsupervised campaign at any --threads value.
[[nodiscard]] CampaignReport run_supervised(
    const std::vector<ExperimentConfig>& trials,
    const SupervisorOptions& options);

/// Aggregates completed trials only, with real failure accounting.
[[nodiscard]] CampaignSummary summarize(const CampaignReport& report);

/// One remote host agent address ("host:port" on the --hosts list).
struct HostEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Shared campaign CLI surface for bench mains: --threads N,
/// --workers K, --journal FILE, --max-trial-ms N, --retries N,
/// --trace FILE, --trace-level off|error|info|debug,
/// --trace-nodes a,b,c, --json, --hosts a:p,b:p, --serve PORT,
/// --lease N, --status-json FILE, --status-interval-ms N,
/// --profile-phases — plus the hidden --worker-* flags the
/// multi-process coordinator (worker.hpp) appends when it self-execs.
struct CampaignCli {
  std::size_t threads = 0;
  /// Worker *processes* (dispatch_campaign); 0 = flag absent, run
  /// in-process. --workers 0 is a usage error; with --workers given,
  /// --threads is the thread count of each worker. Any explicit K >= 1
  /// takes the fork/exec path so even --workers 1 survives a trial that
  /// SIGSEGVs (its report is byte-identical to the in-process path on a
  /// clean campaign).
  std::size_t workers = 0;
  std::string journal;           // empty = no journal
  std::uint64_t max_trial_ms = 0;  // per-trial wall-clock budget
  std::uint64_t retries = 0;       // extra attempts per failed trial
  std::string trace;               // per-trial JSONL base; empty = off
  sim::TraceLevel trace_level = sim::TraceLevel::kInfo;
  std::vector<std::uint16_t> trace_nodes;  // empty = all nodes
  bool json = false;  // also emit machine-readable summary JSON

  /// --hosts a:port,b:port — run this campaign as a distributed
  /// coordinator (dispatch.hpp), leasing trial spans to the listed host
  /// agents. Empty = not distributed. Mutually exclusive with --serve.
  std::vector<HostEndpoint> hosts;
  /// --serve PORT — run this binary as a host agent: listen on PORT
  /// (0 = ephemeral, the bound port is printed to stderr) and execute
  /// leases for a coordinator. -1 = flag absent.
  int serve_port = -1;
  /// --lease N — trials per lease grant on the coordinator (0 = auto).
  std::size_t lease_trials = 0;

  /// --status-json FILE — publish a merged `fourbit.status/1` snapshot
  /// to FILE every status_interval_ms (write-temp-then-rename: the file
  /// is always one complete JSON object). Empty = off. Strictly
  /// off-band: stdout, reports, and --journal bytes are unchanged.
  std::string status_json;
  /// --status-interval-ms N — snapshot cadence (also the cadence at
  /// which workers/hosts stream status upward). 0 is a usage error.
  std::uint64_t status_interval_ms = 1000;
  /// --profile-phases — arm wall-clock phase timers (event dispatch,
  /// channel freeze, batch kernels, trial setup/teardown) feeding
  /// "profile" histograms. Samples are machine-dependent, so traces and
  /// status gain nondeterministic rows; keep off for identity checks.
  bool profile_phases = false;

  // Hidden worker-mode plumbing (never typed by a user): the
  // coordinator re-execs argv with these appended, and run_campaign
  // (worker.hpp) serves the coordinator session when worker_fd >= 0.
  int worker_fd = -1;        // --worker-fd: socket to the coordinator
  std::string worker_flight; // --worker-flight: flight-snapshot base
  std::uint64_t worker_heartbeat_ms = 250;  // --worker-heartbeat-ms

  /// Snapshot of the ORIGINAL argv (before any flag was stripped): the
  /// exact command the coordinator self-execs to mint a worker. The
  /// whole multi-process contract rests on this command rebuilding the
  /// identical trial list — which holds because every bench derives its
  /// trials purely from argv.
  std::vector<std::string> exec_argv;

  [[nodiscard]] SupervisorOptions supervisor_options() const {
    SupervisorOptions options;
    options.threads = threads;
    options.journal_path = journal;
    options.trial_budget.max_wall_ms =
        static_cast<std::int64_t>(max_trial_ms);
    options.retry.max_attempts = 1 + static_cast<std::size_t>(retries);
    options.trace_path_base = trace;
    options.trace_level = trace_level;
    options.trace_nodes = trace_nodes;
    options.profile_phases = profile_phases;
    return options;
  }

  /// The coordinator options for this command line (dispatch.hpp):
  /// supervisor_options() plus the peers (--hosts, else --workers),
  /// lease size, status publication and the coordinator-side trial
  /// backstop. Defined in dispatch.cpp.
  [[nodiscard]] DispatchOptions dispatch_options() const;
};

/// Strips the campaign flags from argv (see CampaignCli).
[[nodiscard]] CampaignCli consume_campaign_cli(int& argc, char** argv);

}  // namespace fourbit::runner
