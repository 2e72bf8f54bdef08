#include "runner/dispatch.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "runner/journal.hpp"
#include "runner/transport.hpp"
#include "runner/worker.hpp"

namespace fourbit::runner {
namespace {

using Clock = std::chrono::steady_clock;

// ---- coordinator ------------------------------------------------------

/// One peer of the coordinator loop: a host agent on the --hosts list,
/// or a local worker process on a socketpair. Both speak the same
/// session protocol; only how a peer starts and how its death is read
/// differ.
struct Peer {
  std::size_t index = 0;  // position on the --hosts list, or worker slot
  bool local = false;     // a forked worker, not a TCP host agent
  HostEndpoint addr;      // host agents only
  pid_t pid = -1;         // local workers only
  int fd = -1;
  bool hello = false;  // peer identified itself as a fourbit agent
  TransportParser parser;

  std::uint32_t lease_id = 0;        // outstanding lease (0 = none)
  std::vector<std::size_t> lease;    // trial indices granted
  std::set<std::size_t> in_flight;   // kTrialStart seen, not settled
  std::map<std::size_t, Clock::time_point> started_at;

  Clock::time_point last_heard{};
  std::uint32_t last_retried_total = 0;
  /// Progress this session: a settled trial, or for a local worker any
  /// trial start (a worker that dies mid-trial blames the trial).
  bool progress = false;
  /// Consecutive fruitless outcomes: failed connects and sessions that
  /// ended without progress. max_host_failures of them retire the peer.
  std::size_t fruitless = 0;
  Clock::time_point restart_at{};
  bool spawned = false;  // a worker process has been started before
  bool retired = false;
  /// Host sessions lost, or worker respawns.
  std::size_t losses = 0;
  /// Per-peer health ledger across the whole campaign.
  std::uint64_t done_here = 0;
  std::uint64_t failed_here = 0;

  [[nodiscard]] std::string name() const {
    std::string out = local ? "w" : addr.host + ":";
    out += std::to_string(local ? index : addr.port);
    return out;
  }
};

/// Why a peer's session ended.
enum class Death {
  kEof,          // the socket closed (a worker process exited)
  kCorrupt,      // torn/corrupt frame or protocol violation
  kHeartbeat,    // silent past heartbeat_timeout_ms
  kTrialTimeout, // a trial outlived trial_timeout_ms
  kSendFailed,   // the lease grant could not be written
  kIdleLease,    // a lease completed without settling any trial
};

std::string death_reason(Death death) {
  switch (death) {
    case Death::kEof: return "disconnected";
    case Death::kCorrupt: return "corrupt stream";
    case Death::kHeartbeat: return "heartbeat silence";
    case Death::kTrialTimeout: return "trial-timeout";
    case Death::kSendFailed: return "send failed";
    case Death::kIdleLease: return "lease completed without settling any trial";
  }
  return "unknown";
}

/// The hard-crash message for a dead local worker, from its wait status.
std::string worker_death_what(const Peer& p, Death death, int sig, int code,
                              std::uint64_t heartbeat_timeout_ms) {
  std::string what = "worker " + std::to_string(p.index);
  if (death == Death::kCorrupt) {
    what += " sent a torn or corrupt pipe frame";
    if (sig != 0) {
      what += " and was killed (signal " + std::to_string(sig) + ")";
    }
  } else if (death == Death::kHeartbeat) {
    what += " stopped heartbeating for over " +
            std::to_string(heartbeat_timeout_ms) + " ms and was killed";
  } else if (death == Death::kTrialTimeout) {
    what += " was killed after a trial overran the coordinator watchdog";
  } else if (sig != 0) {
    what += " was killed by signal " + std::to_string(sig);
  } else if (code >= 0) {
    what += " exited with status " + std::to_string(code) +
            " before finishing its range";
  } else {
    what += " died unexpectedly";
  }
  return what;
}

/// Forks and execs one local worker: the original argv plus the hidden
/// worker flags, with its end of a socketpair as --worker-fd. Returns
/// the coordinator's end (nonblocking, close-on-exec, so no other
/// worker inherits it and a coordinator death reaches every worker).
int spawn_worker(const DispatchOptions& options, const std::string& flight,
                 pid_t& pid) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw std::runtime_error("dispatch_campaign: socketpair() failed");
  }
  std::vector<std::string> args = options.exec_argv;
  args.insert(args.end(),
              {"--worker-fd", std::to_string(fds[1]), "--worker-flight",
               flight, "--worker-heartbeat-ms",
               std::to_string(options.heartbeat_interval_ms)});
  std::vector<char*> argp;
  argp.reserve(args.size() + 1);
  for (auto& arg : args) argp.push_back(arg.data());
  argp.push_back(nullptr);

  pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("dispatch_campaign: fork() failed");
  }
  if (pid == 0) {
    ::fcntl(fds[1], F_SETFD, 0);  // the worker's end survives exec
    // The bench preamble and result tables belong to the coordinator's
    // run alone; a worker's stdout is noise.
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::close(devnull);
    }
    ::execvp(argp[0], argp.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL, 0) | O_NONBLOCK);
  return fds[0];
}

}  // namespace

CampaignReport dispatch_campaign(const std::vector<ExperimentConfig>& trials,
                                 const DispatchOptions& options) {
  namespace fs = std::filesystem;
  CampaignReport report;
  report.results.resize(trials.size());
  report.completed.assign(trials.size(), 0);
  if (trials.empty()) return report;

  // The peers: the hosts, or `workers` local worker processes, or none
  // — an in-process run, whose local pass below runs every trial.
  if (!options.hosts.empty() && options.workers > 0) {
    throw std::invalid_argument(
        "dispatch_campaign: hosts and workers are mutually exclusive");
  }
  const bool local_workers = options.workers > 0;
  if (local_workers && options.exec_argv.empty()) {
    throw std::runtime_error(
        "dispatch_campaign: workers need exec_argv (pass "
        "CampaignCli::exec_argv)");
  }

  const bool user_journal = !options.supervisor.journal_path.empty();
  const std::string stem = options.supervisor.journal_path;
  std::vector<std::uint8_t> failed_bit(trials.size(), 0);

  // Resume from the main journal and the shard a SIGKILLed run left
  // behind. Every result accepted from a peer is recorded the moment it
  // arrives, so SIGKILLing the coordinator loses nothing already
  // reported.
  CampaignJournal journal{stem, trials, report};

  // Worker flight snapshots live next to the journal, or in a private
  // directory removed at the end.
  fs::path temp_dir;
  std::string flight_stem = stem;
  if (local_workers && !user_journal) {
    temp_dir = fs::temp_directory_path() /
               ("fourbit-mp-" + std::to_string(::getpid()));
    std::error_code ec;
    fs::create_directories(temp_dir, ec);
    flight_stem = (temp_dir / "campaign").string();
  }
  const auto flight_base = [&](const Peer& p) {
    return flight_stem + ".w" + std::to_string(p.index);
  };

  // The trials this run owes: everything unsettled, or the subset.
  std::vector<std::size_t> owed;
  if (options.supervisor.subset.empty()) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (!report.completed[i]) owed.push_back(i);
    }
  } else {
    for (const std::size_t i : options.supervisor.subset) {
      if (i < trials.size() && !report.completed[i]) owed.push_back(i);
    }
  }

  const auto settled = [&](std::size_t i) {
    return report.completed[i] != 0 || failed_bit[i] != 0;
  };

  std::vector<Peer> peers;
  if (local_workers) {
    peers.resize(std::clamp<std::size_t>(
        options.workers, 1, std::max<std::size_t>(1, owed.size())));
  } else {
    peers.resize(options.hosts.size());
  }
  for (std::size_t k = 0; k < peers.size(); ++k) {
    peers[k].index = k;
    peers[k].local = local_workers;
    if (!local_workers) peers[k].addr = options.hosts[k];
  }
  if (!peers.empty()) ignore_sigpipe();

  std::map<std::size_t, std::size_t> crash_counts;
  std::size_t progress_done = static_cast<std::size_t>(report.replayed);
  std::size_t failed_count = 0;

  const auto emit_progress = [&](Peer& peer, std::size_t index,
                                 const ExperimentResult* result,
                                 const TrialFailure* failure) {
    ++progress_done;
    if (failure != nullptr) ++failed_count;
    ++(failure != nullptr ? peer.failed_here : peer.done_here);
    if (!options.supervisor.on_trial_done) return;
    TrialProgress p;
    p.trial_index = index;
    p.completed = progress_done;
    p.total = trials.size();
    p.failed = failed_count;
    p.retried = static_cast<std::size_t>(report.retries);
    p.config = &trials[index];
    p.result = result;
    p.failure = failure;
    p.host_losses = static_cast<std::size_t>(report.host_losses);
    p.lease_reassignments =
        static_cast<std::size_t>(report.lease_reassignments);
    options.supervisor.on_trial_done(p);
  };

  const auto settle_failure = [&](Peer& peer, TrialFailure failure) {
    failed_bit[failure.trial_index] = 1;
    report.failures.push_back(std::move(failure));
    emit_progress(peer, report.failures.back().trial_index, nullptr,
                  &report.failures.back());
  };

  const auto fail_hard = [&](Peer& peer, std::size_t index,
                             const std::string& what, int sig) {
    if (settled(index)) return;
    TrialFailure failure;
    failure.kind = FailureKind::kHardCrash;
    failure.what = what;
    failure.trial_index = index;
    failure.seed = trials[index].seed;
    failure.attempt = std::max<std::size_t>(1, crash_counts[index]);
    failure.term_signal = sig;
    // Best evidence available: the worker's last flushed snapshot.
    if (peer.local) {
      auto snap = load_flight_snapshot(
          flight_snapshot_path(flight_base(peer), index));
      if (snap && snap->trial_index == index &&
          snap->seed == trials[index].seed) {
        failure.flight = std::move(snap->events);
      }
    }
    settle_failure(peer, std::move(failure));
  };

  const auto fail_timeout = [&](Peer& peer, std::size_t index) {
    if (settled(index)) return;
    ++report.attempts;
    TrialFailure failure;
    failure.kind = FailureKind::kTimeout;
    failure.what = "trial exceeded the coordinator watchdog (" +
                   std::to_string(options.trial_timeout_ms) +
                   " ms in flight); " +
                   (peer.local ? "its worker was killed"
                               : "its host session was dropped");
    failure.trial_index = index;
    failure.seed = trials[index].seed;
    failure.attempt = 1;
    settle_failure(peer, std::move(failure));
  };

  std::deque<std::size_t> unleased(owed.begin(), owed.end());
  std::uint32_t lease_counter = 0;

  // Campaign metrics: settled trials' final registries from kTrialDone
  // records, plus each live session's forwarded view. A caller's board
  // (a host agent's lease) is fed instead when given. Peer views are
  // keyed past the last trial index, so they never collide with the
  // local pass's per-trial views.
  StatusBoard own_board;
  StatusBoard& status_board = options.supervisor.status != nullptr
                                  ? *options.supervisor.status
                                  : own_board;
  const auto live_key = [&](const Peer& p) { return trials.size() + p.index; };

  // Retires a peer after a run of fruitless sessions (a host after
  // max_host_failures; a worker after max(2, max_trial_crashes), since
  // one that keeps dying before reporting anything is the pool's crash
  // loop), else schedules its restart. The jitter seed is
  // campaign-stable but peer-distinct, so a fleet of lost peers never
  // comes back in lockstep.
  const std::size_t retire_after =
      local_workers ? std::max<std::size_t>(2, options.max_trial_crashes)
                    : options.max_host_failures;
  const auto back_off = [&](Peer& p, const std::string& why) {
    if (p.fruitless >= retire_after) {
      p.retired = true;
      std::fprintf(stderr,
                   "fourbit-dispatch: retiring %s %s after %zu fruitless "
                   "sessions (%s)\n",
                   p.local ? "worker" : "host", p.name().c_str(), p.fruitless,
                   why.c_str());
      return;
    }
    const std::uint64_t seed =
        trials.front().seed + 0x9E3779B97F4A7C15ULL * (p.index + 1);
    p.restart_at =
        Clock::now() +
        std::chrono::milliseconds(options.restart_backoff.delay_ms(
            std::max<std::size_t>(1, p.fruitless), seed));
  };

  // The last worker death, for failing what is left once every worker
  // has been retired.
  std::size_t last_dead = 0;
  std::string last_what;
  int last_sig = 0;

  const auto peer_death = [&](Peer& p, Death death) {
    if (p.fd < 0) return;
    ::close(p.fd);
    p.fd = -1;
    p.hello = false;
    p.parser = TransportParser{};
    // Whatever the session had in flight is re-leased or failed; none
    // of its partial work may count.
    status_board.drop_live(live_key(p));
    const std::string why = death_reason(death);
    std::string what;
    int sig = 0;
    if (p.local) {
      if (death != Death::kEof) ::kill(p.pid, SIGKILL);
      int status = 0;
      ::waitpid(p.pid, &status, 0);
      p.pid = -1;
      sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
      const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      ++report.hard_crashes;
      what = worker_death_what(p, death, sig, code,
                               options.heartbeat_timeout_ms);
      last_dead = p.index;
      last_what = what;
      last_sig = sig;
    } else {
      ++report.host_losses;
      ++p.losses;
    }
    // Every trial in flight at the moment of death is a suspect; one
    // that keeps being in flight when its peer dies is the killer.
    for (const std::size_t i : p.in_flight) {
      if (settled(i)) continue;
      ++report.attempts;
      const std::size_t crashes = ++crash_counts[i];
      if (crashes < options.max_trial_crashes) continue;
      fail_hard(p, i,
                p.local ? what
                        : "host session lost while the trial was in flight (" +
                              why + "); trial survived " +
                              std::to_string(crashes) +
                              " host losses across the fleet (last host " +
                              p.name() + ")",
                sig);
    }
    p.in_flight.clear();
    p.started_at.clear();
    // Whatever the lease still owes goes back for another peer.
    bool returned = false;
    for (const std::size_t i : p.lease) {
      if (!settled(i)) {
        unleased.push_back(i);
        returned = true;
      }
    }
    if (returned && !p.local) ++report.lease_reassignments;
    p.lease.clear();
    p.lease_id = 0;
    if (!p.progress) ++p.fruitless;
    p.progress = false;
    back_off(p, p.local ? what : why);
  };

  const auto start_peer = [&](Peer& p) {
    if (p.local) {
      p.fd = spawn_worker(options, flight_base(p), p.pid);
      if (p.spawned) {
        ++p.losses;
        ++report.worker_respawns;
      }
      p.spawned = true;
    } else {
      p.fd = connect_to_host(p.addr.host, p.addr.port,
                             options.connect_timeout_ms);
      if (p.fd < 0) {
        ++p.fruitless;
        back_off(p, "connect failed");
        return;
      }
    }
    p.hello = false;
    p.parser = TransportParser{};
    p.last_heard = Clock::now();
    p.last_retried_total = 0;
    p.progress = false;
  };

  const auto grant = [&](Peer& p, std::size_t live) {
    std::size_t want = options.lease_trials;
    if (want == 0) {
      // Small enough that a lost peer forfeits little work.
      want = std::min<std::size_t>(32, unleased.size() / (2 * live) + 1);
      // A worker runs its lease on --threads threads: whole rounds.
      const std::size_t threads = options.supervisor.threads;
      if (p.local && threads > 1) {
        want = (want + threads - 1) / threads * threads;
      }
    }
    std::vector<std::size_t> lease;
    while (!unleased.empty() && lease.size() < want) {
      const std::size_t i = unleased.front();
      unleased.pop_front();
      if (!settled(i)) lease.push_back(i);
    }
    if (lease.empty()) return;
    p.lease = lease;
    p.lease_id = ++lease_counter;
    ControlMessage m;
    m.kind = ControlKind::kLeaseGrant;
    m.lease = p.lease_id;
    m.text = format_index_spans(lease);
    const auto frame = encode_control_message(m);
    if (!write_all_fd(p.fd, frame.data(), frame.size())) {
      peer_death(p, Death::kSendFailed);  // the lease is returned
    }
  };

  const auto handle_frame = [&](Peer& p, TransportFrame frame) -> bool {
    switch (frame.type) {
      case TransportFrame::Type::kStatus: {
        WorkerRecord& rec = frame.record;
        const std::size_t index = rec.trial_index;
        switch (rec.kind) {
          case WorkerRecordKind::kHello:
            p.hello = true;
            return true;
          case WorkerRecordKind::kHeartbeat:
            return true;
          case WorkerRecordKind::kTrialStart:
            if (index < trials.size() && !settled(index)) {
              p.in_flight.insert(index);
              p.started_at[index] = Clock::now();
              // A pool serving a host agent's lease relays starts upward.
              if (options.supervisor.on_trial_start) {
                options.supervisor.on_trial_start(index, trials[index]);
              }
            }
            // For a host, a start is liveness, not progress: a host that
            // starts trials but never finishes one still retires.
            if (p.local) {
              p.progress = true;
              p.fruitless = 0;
            }
            return true;
          case WorkerRecordKind::kTrialDone:
          case WorkerRecordKind::kTrialFailed:
            break;
        }
        p.progress = true;
        p.fruitless = 0;
        p.in_flight.erase(index);
        if (const auto it = p.started_at.find(index);
            it != p.started_at.end()) {
          status_board.record_trial_wall(it->second);
          p.started_at.erase(it);
        }
        // The peer's next kStatus restores its other live trials.
        status_board.drop_live(live_key(p));
        if (rec.retried_total >= p.last_retried_total) {
          const std::uint32_t delta = rec.retried_total - p.last_retried_total;
          report.retries += delta;
          report.attempts += delta;  // every retry is one more invocation
          p.last_retried_total = rec.retried_total;
        }
        if (index >= trials.size() || failed_bit[index]) return true;
        if (rec.kind == WorkerRecordKind::kTrialDone) {
          // Completion is settled by the result frame that follows; the
          // trial's final metrics ride here, last-wins per index.
          if (auto metrics = decode_status_snapshot(rec.what)) {
            status_board.settle_metrics(index, std::move(*metrics));
          }
          return true;
        }
        if (report.completed[index]) return true;
        ++report.attempts;
        TrialFailure failure;
        failure.kind = rec.failure_kind;
        failure.what = std::move(rec.what);
        failure.trial_index = index;
        failure.seed = rec.seed;
        failure.attempt = rec.attempt;
        failure.flight = std::move(rec.flight);
        settle_failure(p, std::move(failure));
        return true;
      }
      case TransportFrame::Type::kResult: {
        JournalEntry& entry = frame.entry;
        const std::size_t index = entry.trial_index;
        if (index >= trials.size()) return true;          // foreign index
        if (entry.seed != trials[index].seed) return true;  // foreign seed
        if (failed_bit[index]) return true;  // settled as failed: ignore
        p.progress = true;
        p.fruitless = 0;
        report.results[index] = std::move(entry.result);
        // A double completion after a spurious lease expiry: last record
        // wins, and the trial was already counted.
        if (report.completed[index]) return true;
        report.completed[index] = 1;
        ++report.attempts;
        journal.record(index, report.results[index]);
        emit_progress(p, index, &report.results[index], nullptr);
        return true;
      }
      case TransportFrame::Type::kControl: {
        const ControlMessage& m = frame.control;
        if (m.kind == ControlKind::kStatus) {
          // Off-band observability: the peer's live view replaces its
          // previous one. Never progress, never trial accounting; an
          // undecodable payload is version skew and is dropped.
          if (auto live = decode_status_snapshot(m.text)) {
            status_board.set_live(live_key(p), std::move(*live));
          }
          return true;
        }
        // Only peers send kLeaseComplete; a grant or shutdown coming
        // BACK is a protocol violation — the stream is garbage.
        if (m.kind != ControlKind::kLeaseComplete) return false;
        if (m.lease != p.lease_id) return true;  // stale lease: ignore
        bool returned = false;
        bool any_settled = false;
        for (const std::size_t i : p.lease) {
          if (settled(i)) {
            any_settled = true;
          } else {
            unleased.push_back(i);
            returned = true;
          }
        }
        if (returned && !p.local) ++report.lease_reassignments;
        p.lease.clear();
        p.lease_id = 0;
        // Nothing settled means the peer runs a different trial list
        // (argv drift) or drops every result; re-granting forever would
        // wedge the campaign, fruitless-session accounting retires it.
        if (!any_settled) peer_death(p, Death::kIdleLease);
        return true;
      }
    }
    return true;
  };

  // fourbit.status/1 publication: coordinator lifecycle truth, per-peer
  // lease state/health, a "local" row once the local pass runs, and the
  // board's metrics. The local pass's counters are atomics because a
  // StatusPublisher thread reads them while run_supervised's callback
  // writes them.
  const bool status_publishing =
      !options.status_path.empty() || static_cast<bool>(options.on_status);
  const auto status_every = std::chrono::milliseconds(
      std::max<std::uint64_t>(10, options.status_interval_ms));
  const auto campaign_start = Clock::now();
  std::uint64_t status_seq = 0;
  auto last_status_publish = campaign_start;
  bool local_pass = false;  // set before the pass's publisher starts
  std::atomic<std::size_t> local_settled{0};
  std::atomic<std::size_t> local_failed{0};
  std::atomic<std::uint64_t> local_retried{0};
  const auto publish_status = [&] {
    StatusSnapshot snap;
    status_board.fill_snapshot(snap);
    // Load each pass counter once, so the rows add up to the totals.
    const std::uint64_t pass_settled =
        local_settled.load(std::memory_order_relaxed);
    const std::uint64_t pass_failed =
        local_failed.load(std::memory_order_relaxed);
    const std::uint64_t all_failed = failed_count + pass_failed;
    snap.done = progress_done + pass_settled - all_failed;
    snap.failed = all_failed;
    snap.retried =
        report.retries + local_retried.load(std::memory_order_relaxed);
    snap.replayed = report.replayed;
    snap.hard_crashes = report.hard_crashes;
    snap.worker_respawns = report.worker_respawns;
    snap.host_losses = report.host_losses;
    snap.lease_reassignments = report.lease_reassignments;
    if (local_pass) {
      // The board's own in-flight count is the pass's: peers' trials are
      // never started on it.
      StatusSource src;
      src.name = "local";
      src.kind = StatusSource::Kind::kLocal;
      src.done = pass_settled - pass_failed;
      src.failed = pass_failed;
      src.in_flight = snap.in_flight;
      snap.sources.push_back(std::move(src));
    }
    for (const auto& p : peers) {
      snap.in_flight += p.in_flight.size();
      StatusSource src;
      src.name = p.name();
      src.kind =
          p.local ? StatusSource::Kind::kWorker : StatusSource::Kind::kHost;
      src.alive = p.fd >= 0;
      src.retired = p.retired;
      src.done = p.done_here;
      src.failed = p.failed_here;
      src.in_flight = p.in_flight.size();
      src.losses = p.losses;
      src.fruitless = p.fruitless;
      src.lease = format_index_spans(p.lease);
      snap.sources.push_back(std::move(src));
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - campaign_start).count();
    stamp_status(snap, ++status_seq, elapsed, trials.size());
    if (!options.status_path.empty()) {
      write_status_file(options.status_path, status_json(snap));
    }
    if (options.on_status) options.on_status(snap);
  };

  // ---- the coordinator loop ----
  while (true) {
    const auto now = Clock::now();

    // Publish at the top of the sweep so the file stays fresh even
    // while every peer is down and the loop is just waiting on backoff.
    if (status_publishing && now - last_status_publish >= status_every) {
      last_status_publish = now;
      publish_status();
    }
    // A worker reports its lease complete right after its last result;
    // waiting for that lets it exit on kShutdown, not on a write to a
    // closed socket.
    const bool all_settled = std::all_of(owed.begin(), owed.end(), settled);
    if (all_settled && std::none_of(peers.begin(), peers.end(),
                                    [](const Peer& p) {
                                      return p.local && !p.lease.empty();
                                    })) {
      break;
    }

    // (Re)start peers whose backoff has elapsed.
    for (auto& p : peers) {
      if (all_settled || p.retired || p.fd >= 0 || now < p.restart_at) {
        continue;
      }
      start_peer(p);
    }

    std::size_t live = 0;
    for (const auto& p : peers) live += p.fd >= 0 ? 1 : 0;
    if (live == 0) {
      if (std::all_of(peers.begin(), peers.end(),
                      [](const Peer& p) { return p.retired; })) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }

    // Grant work to idle identified peers.
    for (auto& p : peers) {
      if (p.fd >= 0 && p.hello && p.lease.empty() && !unleased.empty()) {
        grant(p, live);
      }
    }

    // Poll and drain. EINTR (SIGCHLD from a dying worker) is an early
    // timeout, never an error.
    std::vector<pollfd> pfds;
    std::vector<Peer*> owners;
    for (auto& p : peers) {
      if (p.fd < 0) continue;
      pfds.push_back(pollfd{p.fd, POLLIN, 0});
      owners.push_back(&p);
    }
    if (pfds.empty()) continue;
    if (poll_retry(pfds.data(), pfds.size(), 50) < 0) {
      for (auto& pfd : pfds) pfd.revents = 0;
    }

    for (std::size_t x = 0; x < pfds.size(); ++x) {
      Peer& p = *owners[x];
      if (p.fd < 0) continue;  // died earlier this sweep
      if ((pfds[x].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::optional<Death> death;
      while (true) {
        std::uint8_t buf[65536];
        const ssize_t n = ::read(p.fd, buf, sizeof buf);
        if (n > 0) {
          p.last_heard = Clock::now();
          p.parser.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        death = Death::kEof;
        break;
      }
      // Settle everything the peer reported before judging its death:
      // pre-crash records are real completions.
      while (p.fd >= 0) {
        auto frame = p.parser.next();
        if (!frame) break;
        if (!handle_frame(p, std::move(*frame))) {
          death = Death::kCorrupt;
          break;
        }
      }
      if (p.parser.corrupt()) death = Death::kCorrupt;
      if (death) peer_death(p, *death);
    }

    // Watchdogs: heartbeat silence and (when armed) per-trial wall time.
    const auto check = Clock::now();
    for (auto& p : peers) {
      if (p.fd < 0) continue;
      if (options.heartbeat_timeout_ms != 0 &&
          check - p.last_heard >
              std::chrono::milliseconds(options.heartbeat_timeout_ms)) {
        peer_death(p, Death::kHeartbeat);
        continue;
      }
      if (options.trial_timeout_ms == 0) continue;
      std::vector<std::size_t> overdue;
      for (const auto& [i, since] : p.started_at) {
        if (check - since >
            std::chrono::milliseconds(options.trial_timeout_ms)) {
          overdue.push_back(i);
        }
      }
      if (overdue.empty()) continue;
      // The overdue trial is a terminal timeout right now, not a crash
      // suspect; collateral in-flight trials are suspects as usual.
      for (const std::size_t i : overdue) fail_timeout(p, i);
      peer_death(p, Death::kTrialTimeout);
    }
  }

  // Shut every session down: host agents hang up and wait for the next
  // coordinator; workers exit at once and are reaped here.
  {
    ControlMessage bye;
    bye.kind = ControlKind::kShutdown;
    const auto frame = encode_control_message(bye);
    for (auto& p : peers) {
      status_board.drop_live(live_key(p));
      if (p.fd < 0) continue;
      write_all_fd(p.fd, frame.data(), frame.size());
      ::close(p.fd);
      p.fd = -1;
    }
    for (auto& p : peers) {
      if (p.pid > 0) ::waitpid(p.pid, nullptr, 0);
      p.pid = -1;
    }
  }

  // ---- trials no peer settled ----
  std::vector<std::size_t> remaining;
  for (const std::size_t i : owed) {
    if (!settled(i)) remaining.push_back(i);
  }
  if (!remaining.empty() && local_workers) {
    // Running them in-process would give up crash isolation: workers
    // that keep dying before reporting anything condemn the rest.
    for (const std::size_t i : remaining) {
      fail_hard(peers[last_dead], i,
                last_what + " (repeatedly, before reporting any trial)",
                last_sig);
    }
  } else if (!remaining.empty()) {
    // The local pass: the whole campaign when there are no peers, the
    // rest once every host is gone.
    if (!peers.empty()) {
      std::fprintf(stderr,
                   "fourbit-dispatch: every host is gone; finishing %zu "
                   "remaining trials locally\n",
                   remaining.size());
    }
    SupervisorOptions local = options.supervisor;
    local.subset = remaining;
    local.journal_path.clear();  // on_trial_done records into ours
    const std::size_t base_done = progress_done;
    const std::size_t base_failed = failed_count;
    const std::uint64_t base_retries = report.retries;
    const auto inner = options.supervisor.on_trial_done;
    local.on_trial_done = [&, inner](const TrialProgress& p) {
      local_settled.store(p.completed, std::memory_order_relaxed);
      local_failed.store(p.failed, std::memory_order_relaxed);
      local_retried.store(p.retried, std::memory_order_relaxed);
      if (p.result != nullptr) journal.record(p.trial_index, *p.result);
      if (!inner) return;
      TrialProgress q = p;  // re-base counters onto the whole campaign
      q.completed = base_done + p.completed;
      q.failed = base_failed + p.failed;
      q.retried = static_cast<std::size_t>(base_retries) + p.retried;
      inner(q);
    };
    // The pass feeds the board the peers fed, and a publisher thread
    // keeps the file fresh while run_supervised blocks. A caller's board
    // is already in `local`; the private one is armed only when status
    // is published, since every trial would push registries into it.
    local_pass = true;
    std::optional<StatusPublisher> pass_publisher;
    if (status_publishing) {
      local.status = &status_board;
      pass_publisher.emplace(options.status_interval_ms, publish_status);
    }
    CampaignReport fb = run_supervised(trials, local);
    pass_publisher.reset();  // final tick before the report merge
    for (const std::size_t i : remaining) {
      if (fb.completed[i]) {
        report.results[i] = std::move(fb.results[i]);
        report.completed[i] = 1;
      }
    }
    for (auto& f : fb.failures) {
      failed_bit[f.trial_index] = 1;
      report.failures.push_back(std::move(f));
    }
    report.attempts += fb.attempts;
    report.retries += fb.retries;
  }

  journal.finish(report);
  if (!temp_dir.empty()) {
    std::error_code ec;
    fs::remove_all(temp_dir, ec);
  }

  // Settlement order is scheduling; the report must not be.
  std::sort(report.failures.begin(), report.failures.end(),
            [](const TrialFailure& a, const TrialFailure& b) {
              return a.trial_index < b.trial_index;
            });
  // Per-host health ledger, in --hosts order (deterministic), for
  // describe() and post-mortems.
  for (const auto& p : peers) {
    if (p.local) continue;
    HostHealth health;
    health.name = p.name();
    health.completed = p.done_here;
    health.losses = p.losses;
    health.fruitless = p.fruitless;
    health.retired = p.retired;
    report.host_health.push_back(std::move(health));
  }
  // The last published snapshot is the settled end state — a poller
  // never ends the campaign staring at a mid-flight picture.
  if (status_publishing) publish_status();
  return report;
}

DispatchOptions CampaignCli::dispatch_options() const {
  DispatchOptions options;
  options.supervisor = supervisor_options();
  options.workers = workers;
  options.exec_argv = exec_argv;
  options.hosts = hosts;
  options.lease_trials = lease_trials;
  options.heartbeat_interval_ms = worker_heartbeat_ms;
  // The coordinator backstop must out-wait the peer's own SimBudget (the
  // cooperative watchdog should win the race and record a retryable
  // soft timeout); it only fires on non-cooperative hangs, or on a host
  // whose machine we cannot signal.
  options.trial_timeout_ms = max_trial_ms != 0 ? max_trial_ms * 2 + 5000 : 0;
  options.status_path = status_json;
  options.status_interval_ms = status_interval_ms;
  return options;
}

// ---- agent side: host agents and local workers -------------------------

namespace {

/// One coordinator session as seen from the agent. The writer is shared
/// by the session loop, the lease's trial threads and the ticker thread:
/// frames are written whole under a mutex. The first failed write means
/// the coordinator is gone — a local worker exits on the spot (nothing
/// it holds is durable anywhere else), a host agent latches the session
/// dead and waits for the next coordinator.
class Session {
 public:
  Session(int fd, bool exit_when_orphaned)
      : fd_(fd), exit_when_orphaned_(exit_when_orphaned) {}

  bool send(const std::vector<std::uint8_t>& frame) {
    const std::lock_guard<std::mutex> lock{write_mutex_};
    if (dead_.load(std::memory_order_relaxed)) return false;
    if (!write_all_fd(fd_, frame.data(), frame.size())) {
      if (exit_when_orphaned_) ::_exit(1);
      dead_.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  [[nodiscard]] bool dead() const {
    return dead_.load(std::memory_order_relaxed);
  }

  /// The running lease's board, whose live view the ticker streams.
  void set_board(StatusBoard* board) {
    const std::lock_guard<std::mutex> lock{tick_mutex_};
    board_ = board;
  }

  /// Heartbeats every beat_ms and the live view every status_ms, until
  /// stop_ticker() — which wakes the thread at once rather than after
  /// its current sleep.
  void start_ticker(std::uint64_t beat_ms, std::uint64_t status_ms) {
    ticker_ = std::thread([this, beat = std::chrono::milliseconds(beat_ms),
                           status = std::chrono::milliseconds(status_ms)] {
      std::unique_lock<std::mutex> lock{tick_mutex_};
      auto last_beat = Clock::now();
      auto last_status = last_beat;
      while (!wake_.wait_for(lock, std::min(beat, status),
                             [this] { return stopping_; })) {
        const auto now = Clock::now();
        if (now - last_beat >= beat) {
          WorkerRecord rec;
          rec.kind = WorkerRecordKind::kHeartbeat;
          send(encode_worker_record(rec));
          last_beat = now;
        }
        if (board_ != nullptr && now - last_status >= status) {
          ControlMessage m;
          m.kind = ControlKind::kStatus;
          m.text = status_payload(board_->live_view());
          send(encode_control_message(m));
          last_status = now;
        }
      }
    });
  }

  void stop_ticker() {
    {
      const std::lock_guard<std::mutex> lock{tick_mutex_};
      stopping_ = true;
    }
    wake_.notify_all();
    ticker_.join();
  }

 private:
  int fd_;
  bool exit_when_orphaned_;
  std::mutex write_mutex_;
  std::atomic<bool> dead_{false};
  std::mutex tick_mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  StatusBoard* board_ = nullptr;
  std::thread ticker_;
};

void run_lease(const std::vector<ExperimentConfig>& trials,
               const CampaignCli& cli, const SupervisorOptions& base,
               Session& session, const ControlMessage& grant,
               std::uint32_t& session_retries) {
  std::vector<std::size_t> subset;
  if (auto parsed = parse_index_spans(grant.text)) {
    for (const std::size_t i : *parsed) {
      if (i < trials.size()) subset.push_back(i);
    }
  }

  if (!subset.empty()) {
    // The lease's board: the supervisor (or a host agent's worker pool)
    // feeds it, kTrialDone records carry each settled trial's metrics
    // from it, and the ticker streams its live view as kStatus frames.
    StatusBoard board;
    SupervisorOptions sopts = base;
    sopts.subset = subset;
    sopts.status = &board;
    sopts.on_trial_start = [&](std::size_t index,
                               const ExperimentConfig& config) {
      WorkerRecord rec;
      rec.kind = WorkerRecordKind::kTrialStart;
      rec.trial_index = static_cast<std::uint32_t>(index);
      rec.seed = config.seed;
      session.send(encode_worker_record(rec));
    };
    sopts.on_trial_done = [&](const TrialProgress& p) {
      WorkerRecord rec;
      rec.trial_index = static_cast<std::uint32_t>(p.trial_index);
      rec.seed = trials[p.trial_index].seed;
      rec.retried_total =
          session_retries + static_cast<std::uint32_t>(p.retried);
      if (p.failure != nullptr) {
        rec.kind = WorkerRecordKind::kTrialFailed;
        rec.failure_kind = p.failure->kind;
        rec.what = p.failure->what;
        rec.attempt = static_cast<std::uint32_t>(p.failure->attempt);
        rec.flight = p.failure->flight;
      } else {
        rec.kind = WorkerRecordKind::kTrialDone;
        rec.attempt = 1;
        rec.what = status_payload(board.trial_metrics(p.trial_index));
      }
      session.send(encode_worker_record(rec));
      // Stream the result now, so a later trial crashing this process
      // cannot strand work the coordinator could already have made
      // durable.
      if (p.result != nullptr) {
        session.send(encode_journal_record(
            {static_cast<std::uint32_t>(p.trial_index),
             trials[p.trial_index].seed, *p.result}));
      }
    };
    session.set_board(&board);
    // In-process, or on a local worker pool when this agent has
    // --workers: trial SIGSEGVs then take down a worker, not the agent.
    // Status is the session's to stream, never a file of the agent's.
    DispatchOptions lease = cli.dispatch_options();
    lease.supervisor = std::move(sopts);
    lease.status_path.clear();
    const CampaignReport rep = dispatch_campaign(trials, lease);
    session.set_board(nullptr);
    session_retries += static_cast<std::uint32_t>(rep.retries);
  }

  ControlMessage done;
  done.kind = ControlKind::kLeaseComplete;
  done.lease = grant.lease;
  session.send(encode_control_message(done));
}

/// One coordinator session: hello, heartbeats, leases until the
/// coordinator hangs up, shuts us down, or the stream goes bad.
void serve_session(int fd, const std::vector<ExperimentConfig>& trials,
                   const CampaignCli& cli, const SupervisorOptions& options,
                   bool worker) {
  Session session{fd, worker};
  {
    WorkerRecord hello;
    hello.kind = WorkerRecordKind::kHello;
    session.send(encode_worker_record(hello));
  }
  session.start_ticker(
      std::max<std::uint64_t>(10, cli.worker_heartbeat_ms),
      std::max<std::uint64_t>(10, cli.status_interval_ms));

  TransportParser parser;
  std::uint32_t session_retries = 0;
  bool hangup = false;
  while (!hangup && !session.dead()) {
    pollfd pfd{fd, POLLIN, 0};
    const int polled = poll_retry(&pfd, 1, 500);
    if (polled < 0) break;
    if (polled == 0) continue;

    std::uint8_t buf[65536];
    ssize_t n;
    do {
      n = ::read(fd, buf, sizeof buf);
    } while (n < 0 && errno == EINTR);
    if (n == 0) break;  // coordinator hung up
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    parser.feed(buf, static_cast<std::size_t>(n));
    while (auto frame = parser.next()) {
      // Only grants and shutdowns flow coordinator -> agent; anything
      // else is nonsense and ends the session.
      if (frame->type == TransportFrame::Type::kControl &&
          frame->control.kind == ControlKind::kLeaseGrant) {
        run_lease(trials, cli, options, session, frame->control,
                  session_retries);
        continue;
      }
      hangup = true;
      break;
    }
    if (parser.corrupt()) break;
  }
  session.stop_ticker();
}

/// The agent keeps no journal and serves no nested campaign: results
/// are durable on the coordinator the moment they land, and a
/// reassigned lease re-runs from scratch anyway (trials are pure).
SupervisorOptions agent_options(SupervisorOptions options) {
  options.journal_path.clear();
  options.subset.clear();
  options.on_trial_done = nullptr;
  options.on_trial_start = nullptr;
  return options;
}

}  // namespace

void run_host_agent(const std::vector<ExperimentConfig>& trials,
                    const CampaignCli& cli, SupervisorOptions options) {
  ignore_sigpipe();
  options = agent_options(std::move(options));

  const auto listener =
      listen_on(static_cast<std::uint16_t>(std::max(0, cli.serve_port)));
  if (!listener) {
    std::fprintf(stderr, "fourbit-agent: cannot listen on port %d\n",
                 cli.serve_port);
    std::exit(1);
  }
  // The announce line is the agent's API for scripts and tests: an
  // ephemeral --serve 0 port is discoverable only here.
  std::fprintf(stderr, "fourbit-agent: listening on port %u\n",
               static_cast<unsigned>(listener->port));
  std::fflush(stderr);

  for (;;) {
    const int fd = accept_retry(listener->fd);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    serve_session(fd, trials, cli, options, /*worker=*/false);
    ::close(fd);
  }
}

void run_worker(const std::vector<ExperimentConfig>& trials,
                const CampaignCli& cli, SupervisorOptions options) {
  ignore_sigpipe();
  options = agent_options(std::move(options));
  // Periodic flight-recorder snapshots are the coordinator's evidence
  // if this process dies mid-trial.
  options.flight_flush_base = cli.worker_flight;
  // --workers in the re-exec'd argv is the coordinator's, not ours.
  CampaignCli session_cli = cli;
  session_cli.workers = 0;
  serve_session(cli.worker_fd, trials, session_cli, options, /*worker=*/true);
  std::exit(0);
}

}  // namespace fourbit::runner
