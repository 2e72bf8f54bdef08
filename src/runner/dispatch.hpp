// The campaign coordinator: one lease-serving loop for every
// multi-process campaign, and the agent side that executes leases.
//
// The loop drives two kinds of peer through one session protocol:
//   * host agents (`--hosts a:port,b:port`): any bench binary relaunched
//     with `--serve port`, reached over TCP (run_distributed);
//   * local workers (`--workers K`): the bench binary self-exec'd on a
//     socketpair (run_multiprocess, worker.hpp).
// Both ends derive the identical trial list from the same bench
// arguments, so the only things that cross the wire are trial INDICES
// (lease grants) and trial RESULTS (journal frames). The coordinator:
//
//   * serves trial-index leases to connected peers and tracks a
//     per-lease deadline (heartbeat silence, disconnect, a corrupt
//     stream, or an overrun trial ends the session);
//   * returns a dead peer's lease to the pool, restarts the peer
//     (reconnect, or respawn) with capped-exponential Backoff, and
//     retires it after max_host_failures fruitless sessions;
//   * deduplicates double-completions by (index, seed) last-wins, so a
//     lease finishing on two hosts after a spurious expiry is harmless;
//   * attributes a peer death to the trials that were in flight and
//     marks a trial kHardCrash once it survives max_trial_crashes of
//     them (the crash-loop quarantine, across workers and machines);
//   * records every accepted result in the campaign journal's shard
//     (CampaignJournal, journal.hpp), so SIGKILLing the coordinator
//     loses nothing a peer already reported; and
//   * once every peer is retired, finishes the rest with a local
//     run_supervised pass (hosts: the campaign ALWAYS completes) or
//     fails it as kHardCrash (workers: running a crashing trial
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
// and --journal file are byte-identical to an in-process run at any
// --threads, and a resume after coordinator SIGKILL is bit-identical
// too. Liveness
// caveat: a peer that heartbeats but never finishes its trial is only
// expired when --max-trial-ms arms trial_timeout_ms.
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
  /// shard lives next to it); on_trial_done fires on the coordinator as trials
  /// settle; run_trial/threads apply to the local fallback only.
  SupervisorOptions supervisor;
  /// Host agents to drive (from --hosts). May be empty, in which case
  /// the whole campaign is one local fallback pass.
  std::vector<HostEndpoint> hosts;
  /// Trials per lease grant; 0 = auto (pending / 2·live hosts, capped
  /// at 32 — small enough that a lost host forfeits little work).
  std::size_t lease_trials = 0;

  /// A host session silent for this long is dead: lease expired.
  std::uint64_t heartbeat_timeout_ms = 10'000;
  /// Per-connect() deadline.
  std::uint64_t connect_timeout_ms = 2'000;
  /// Delay ladder between reconnect attempts to a lost host.
  Backoff reconnect_backoff{250, 10'000, 0.25};
  /// Consecutive fruitless sessions/connect failures (no trial
  /// progress) before a host is retired for the campaign.
  std::size_t max_host_failures = 3;
  /// Host deaths a single trial may be in flight for before it is
  /// declared the killer and marked kHardCrash (crash-loop quarantine).
  std::size_t max_trial_crashes = 2;
  /// Coordinator-side per-trial wall clock (0 = off): expires the
  /// session of a host whose trial outlives it (non-cooperative hangs
  /// on a machine we cannot signal).
  std::uint64_t trial_timeout_ms = 0;

  /// Live observability: publish a fourbit.status/1 snapshot — per-host
  /// lease state and health plus the settled trials' metrics and every
  /// host's live view — to status_path every status_interval_ms
  /// (write-temp-then-rename), and/or hand it to on_status. Strictly
  /// off-band; empty/null disables.
  std::string status_path;
  std::uint64_t status_interval_ms = 1000;
  std::function<void(const StatusSnapshot&)> on_status;
};

/// Runs the campaign across remote host agents. Blocks until every
/// trial is settled; never throws on host misbehavior — only on
/// coordinator-side setup errors (e.g. an unopenable journal).
[[nodiscard]] CampaignReport run_distributed(
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
