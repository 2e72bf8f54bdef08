// The campaign coordinator: one lease-serving loop for every campaign,
// and the agent side that executes leases.
//
// dispatch_campaign is the one entry. Its peers are
//   * host agents (`--hosts a:port,b:port`): any bench binary relaunched
//     with `--serve port`, reached over TCP; or else
//   * local workers (`--workers K`): the bench binary self-exec'd on a
//     socketpair (worker.hpp);
// and with neither it is an in-process run: the same loop with no
// peers, whose local pass runs every trial through run_supervised.
// Both peer kinds speak one session protocol and derive the identical
// trial list from the same bench arguments, so the only things that
// cross the wire are trial INDICES (lease grants) and trial RESULTS
// (journal frames). The coordinator:
//
//   * serves trial-index leases to connected peers and tracks a
//     per-lease deadline (heartbeat silence, disconnect, a corrupt
//     stream, or an overrun trial ends the session);
//   * returns a dead peer's lease to the pool, restarts the peer
//     (reconnect, or respawn) with capped-exponential Backoff, and
//     retires it after a run of fruitless sessions;
//   * deduplicates double-completions by (index, seed) last-wins, so a
//     lease finishing on two hosts after a spurious expiry is harmless;
//   * attributes a peer death to the trials that were in flight and
//     marks a trial kHardCrash once it survives max_trial_crashes of
//     them (the crash-loop quarantine, across workers and machines);
//   * records every accepted result in the campaign journal's shard
//     (CampaignJournal, journal.hpp), so SIGKILLing the coordinator
//     loses nothing a peer already reported; and
//   * runs what no peer settled in a local run_supervised pass: all of
//     it with no peers, the rest once every host is retired (hosts: the
//     campaign ALWAYS completes) — while workers that are all retired
//     fail the rest as kHardCrash instead (running a crashing trial
//     in-process would give up the isolation the pool exists for).
//
// What differs per peer kind is only how a peer starts (connect, or
// fork/exec), how its death is read (socket close, or waitpid with
// signal/exit attribution and flight-recorder evidence), what it counts
// (host_losses/lease_reassignments, or hard_crashes/worker_respawns),
// and the all-retired rule above.
//
// Determinism: every trial is a pure function of its config, results
// ride CRC-framed journal records byte-for-byte, the final report is
// keyed by trial index, and the campaign journal extends the main
// journal in index order at the end — so a clean run's CampaignReport
// and --journal file are byte-identical at any --threads, --workers or
// --hosts, and a resume after coordinator SIGKILL is bit-identical
// too. Liveness caveat: a peer that heartbeats but never finishes its
// trial is only expired when --max-trial-ms arms trial_timeout_ms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/status.hpp"
#include "runner/supervisor.hpp"

namespace fourbit::runner {

struct DispatchOptions {
  /// Trial-level policy. journal_path is the main journal stem (its
  /// shard lives next to it); on_trial_start and on_trial_done fire on
  /// the coordinator as trials start and settle; threads is each
  /// worker's thread count and the local pass's; run_trial applies to
  /// the local pass only.
  SupervisorOptions supervisor;
  /// Local worker processes to drive (from --workers); 0 = none.
  /// Mutually exclusive with hosts.
  std::size_t workers = 0;
  /// The workers' self-exec command: the ORIGINAL argv
  /// (CampaignCli::exec_argv). The coordinator appends --worker-fd/
  /// --worker-flight/--worker-heartbeat-ms when spawning.
  std::vector<std::string> exec_argv;
  /// Host agents to drive (from --hosts). With no hosts and no workers
  /// the whole campaign is one local pass.
  std::vector<HostEndpoint> hosts;
  /// Trials per lease grant; 0 = auto (pending / 2·live peers, capped
  /// at 32 — small enough that a lost peer forfeits little work).
  std::size_t lease_trials = 0;

  /// Workers heartbeat every heartbeat_interval_ms; a peer silent for
  /// heartbeat_timeout_ms is dead: lease expired (a worker is killed
  /// and handled as a hard crash).
  std::uint64_t heartbeat_interval_ms = 250;
  std::uint64_t heartbeat_timeout_ms = 10'000;
  /// Per-connect() deadline (hosts).
  std::uint64_t connect_timeout_ms = 2'000;
  /// Delay ladder between a peer's death and its restart (reconnect or
  /// respawn): base delay after a productive session, doubling over
  /// consecutive fruitless ones.
  Backoff restart_backoff{250, 10'000, 0.25};
  /// Consecutive fruitless sessions/connect failures (no trial
  /// progress) before a host is retired for the campaign. A worker is
  /// retired after max(2, max_trial_crashes) fruitless deaths.
  std::size_t max_host_failures = 3;
  /// Peer deaths a single trial may be in flight for before it is
  /// declared the killer and marked kHardCrash (crash-loop quarantine).
  std::size_t max_trial_crashes = 2;
  /// Coordinator-side per-trial wall clock (0 = off): a trial in flight
  /// longer than this is marked kTimeout and its peer's session ended —
  /// the backstop for non-cooperative hangs the in-trial SimBudget
  /// cannot interrupt (e.g. a blocking syscall, a machine we cannot
  /// signal).
  std::uint64_t trial_timeout_ms = 0;

  /// Live observability: publish a fourbit.status/1 snapshot — per-peer
  /// lease state and health, a "local" row while the local pass runs,
  /// plus the settled trials' metrics and every live view — to
  /// status_path every status_interval_ms (write-temp-then-rename),
  /// and/or hand it to on_status. Strictly off-band; empty/null
  /// disables. Metrics accumulate in supervisor.status when set (a host
  /// agent's lease board), else in a private board.
  std::string status_path;
  std::uint64_t status_interval_ms = 1000;
  std::function<void(const StatusSnapshot&)> on_status;
};

/// Runs the campaign on its peers (see DispatchOptions), or in-process
/// when it has none. Blocks until every trial is settled (completed,
/// failed, or failed-permanent) and every worker is reaped. Never throws
/// on peer misbehavior — only on coordinator-side setup errors (an
/// unopenable journal, a failed fork, workers without exec_argv, hosts
/// and workers both set).
[[nodiscard]] CampaignReport dispatch_campaign(
    const std::vector<ExperimentConfig>& trials,
    const DispatchOptions& options);

/// Host-agent mode (--serve): listens on cli.serve_port (0 =
/// ephemeral; the bound port is announced on stderr as
/// "fourbit-agent: listening on port N"), then serves coordinator
/// sessions forever — grant in, trials run (through the worker pool
/// when --workers is given, in-process otherwise), statuses and
/// results stream out. Never returns; the agent dies by signal. A local
/// worker (run_worker) serves one such session on its socketpair.
/// `options` is the agent's supervisor policy — typically
/// cli.supervisor_options(), run_trial overridden by tests; its
/// journal_path is ignored (results are durable on the coordinator).
[[noreturn]] void run_host_agent(const std::vector<ExperimentConfig>& trials,
                                 const CampaignCli& cli,
                                 SupervisorOptions options);

}  // namespace fourbit::runner
