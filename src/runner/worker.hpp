// Multi-process campaign execution: local worker processes that take
// the crash of any trial with them, and the one campaign entry point.
//
// The in-process supervisor (supervisor.hpp) catches what C++ lets it
// catch — exceptions, asserts, cooperative budget timeouts. It is
// structurally blind to SIGSEGV, SIGBUS, OOM kills and std::terminate:
// those take the whole process, and every sibling trial, with it.
// run_multiprocess moves the isolation boundary to processes, and runs
// them through the same coordinator loop as a distributed campaign
// (dispatch.hpp):
//
//   * The coordinator self-execs argv with hidden --worker-* flags and
//     its end of a socketpair; a worker rebuilds the identical trial
//     list from argv (every bench derives trials purely from its
//     arguments) and runs the host agent's session protocol on the
//     socket: hello, heartbeats, then trial-index leases run in-process
//     by run_supervised.
//   * Everything rides that socket as CRC-framed records: status frames
//     ("FW", below) for trial start/done/failed, results as journal
//     frames ("FJ", journal.hpp), lease control frames ("FT",
//     transport.hpp). The coordinator appends each result to its own
//     crash-safe journal shard the moment it arrives, so a coordinator
//     SIGKILL loses nothing a worker reported. A worker whose
//     coordinator is gone exits at its next write.
//   * The coordinator reaps deaths with waitpid and converts fatal
//     signals / nonzero exits / torn frames into FailureKind::kHardCrash,
//     attaching the worker's last flushed flight-recorder snapshot when
//     one exists. Dead workers respawn with capped exponential backoff;
//     a trial that keeps killing its worker is marked failed-permanent
//     after max_trial_crashes, so a poisonous config degrades the
//     campaign instead of wedging it.
//   * The final CampaignReport is bit-identical to a single-process run
//     for every surviving trial, at any --workers / --threads
//     combination, and so is the compacted --journal file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runner/status.hpp"
#include "runner/supervisor.hpp"
#include "sim/telemetry.hpp"

namespace fourbit::runner {

// ---- trial status records ("FW") ---------------------------------------
//
// What a worker or host agent reports about its trials, one frame each:
//     magic   u16  0x4657 ("FW")
//     length  u32  payload byte count
//     payload      version u8 | kind u8 | worker u32 | trial_index u32
//                  | seed u64 | attempt u32 | failure_kind u8
//                  | retried_total u32 | what (u32 + bytes)
//                  | flight (u32 + 37-byte events)
//     crc     u16  CRC-16/CCITT over the payload
// TransportParser (transport.hpp) reads them off the session socket.

enum class WorkerRecordKind : std::uint8_t {
  kHello = 0,      // first record of a session
  kHeartbeat = 1,  // liveness tick (--worker-heartbeat-ms cadence)
  kTrialStart = 2, // a trial's first attempt is beginning
  /// Trial completed; its result follows as a journal frame. `what`
  /// carries the trial's final telemetry as a fourbit.status/1 payload.
  kTrialDone = 3,
  kTrialFailed = 4,// trial failed terminally in-process (soft failure)
};

struct WorkerRecord {
  WorkerRecordKind kind = WorkerRecordKind::kHeartbeat;
  std::uint32_t worker = 0;
  std::uint32_t trial_index = 0;
  std::uint64_t seed = 0;
  std::uint32_t attempt = 0;       // attempts consumed by this trial
  FailureKind failure_kind = FailureKind::kException;  // kTrialFailed
  std::uint32_t retried_total = 0; // retries so far, this session
  std::string what;                // kTrialFailed: the failure message
  std::vector<sim::TelemetryEvent> flight;  // kTrialFailed only
};

/// Status frame magic ("FW").
inline constexpr std::uint16_t kWorkerPipeMagic = 0x4657;

/// Serializes one record as a complete frame (header + payload + CRC).
[[nodiscard]] std::vector<std::uint8_t> encode_worker_record(
    const WorkerRecord& record);

/// Decodes one status frame payload (the bytes between the length field
/// and the CRC). Returns nullopt on version or layout mismatch.
[[nodiscard]] std::optional<WorkerRecord> decode_worker_record_payload(
    std::span<const std::uint8_t> payload);

// ---- trial index spans ------------------------------------------------

/// "0-4,7,9-12" for {0,1,2,3,4,7,9,10,11,12}; "" for the empty set.
[[nodiscard]] std::string format_index_spans(
    const std::vector<std::size_t>& indices);

/// Inverse of format_index_spans; nullopt on junk (overlaps and
/// unsorted spans are accepted, duplicates removed).
[[nodiscard]] std::optional<std::vector<std::size_t>> parse_index_spans(
    const std::string& spans);

// ---- flight-recorder snapshots ----------------------------------------
//
// A worker can die holding the only evidence of what its sim was doing.
// run_experiment periodically flushes the flight recorder to
// flight_snapshot_path(base, index) (write-temp-then-rename, so the
// file is always a complete snapshot or absent); the coordinator loads
// the latest one into the hard-crash TrialFailure.

struct FlightSnapshot {
  std::uint32_t trial_index = 0;
  std::uint64_t seed = 0;
  std::vector<sim::TelemetryEvent> events;
};

void write_flight_snapshot(const std::string& path, std::size_t trial_index,
                           std::uint64_t seed,
                           const std::vector<sim::TelemetryEvent>& events);

/// nullopt when the file is absent, torn, or fails its CRC — crash
/// evidence is best-effort by nature.
[[nodiscard]] std::optional<FlightSnapshot> load_flight_snapshot(
    const std::string& path);

// ---- the worker pool --------------------------------------------------

struct MultiprocessOptions {
  /// Trial-level policy (threads = per-worker threads; journal_path =
  /// the main journal stem, also where shards live; on_trial_start and
  /// on_trial_done fire on the coordinator as workers report).
  SupervisorOptions supervisor;
  std::size_t workers = 1;
  /// The self-exec command: the ORIGINAL argv (CampaignCli::exec_argv).
  /// The coordinator appends --worker-fd/--worker-flight/
  /// --worker-heartbeat-ms when spawning.
  std::vector<std::string> exec_argv;

  /// Worker liveness: a worker that sends nothing for
  /// heartbeat_timeout_ms is presumed wedged, killed, and handled as a
  /// hard crash. Workers tick every heartbeat_interval_ms.
  std::uint64_t heartbeat_interval_ms = 250;
  std::uint64_t heartbeat_timeout_ms = 10'000;
  /// Coordinator-side per-trial wall clock (0 = off): a trial in flight
  /// longer than this gets its worker killed and is marked kTimeout
  /// immediately — the backstop for non-cooperative hangs the in-worker
  /// SimBudget cannot interrupt (e.g. a blocking syscall).
  std::uint64_t trial_timeout_ms = 0;

  /// Backoff between a worker death and its respawn: base delay after a
  /// productive life, doubling over consecutive fruitless ones (dying
  /// before reporting any trial). max(2, max_trial_crashes) fruitless
  /// deaths in a row retire the worker; once every worker is retired,
  /// the trials left fail as kHardCrash.
  Backoff respawn_backoff{250, 10'000, 0.25};
  /// A trial in flight during this many worker deaths is declared the
  /// killer and marked failed-permanent (kHardCrash) instead of being
  /// retried into a crash loop.
  std::size_t max_trial_crashes = 2;

  /// Live observability. status_path: publish a fourbit.status/1
  /// snapshot there every status_interval_ms (write-temp-then-rename).
  /// on_status: additionally hand each snapshot to this callback. Both
  /// are strictly off-band. Metrics accumulate in supervisor.status
  /// when set (a host agent's lease board), else in a private board.
  std::string status_path;
  std::uint64_t status_interval_ms = 1000;
  std::function<void(const StatusSnapshot&)> on_status;
};

/// Runs the campaign across worker processes through the coordinator
/// loop of dispatch.cpp. Blocks until every trial is settled (completed,
/// failed, or failed-permanent) and every worker is reaped. Never throws
/// on worker misbehavior — only on coordinator-side I/O setup errors.
[[nodiscard]] CampaignReport run_multiprocess(
    const std::vector<ExperimentConfig>& trials,
    const MultiprocessOptions& options);

/// Worker-mode entry (--worker-fd): serves the coordinator session on
/// cli.worker_fd — the host agent's protocol, leases run in-process —
/// then exits the process (never returns). `options` is the worker's
/// supervisor policy — typically cli.supervisor_options(), with
/// run_trial overridden by tests; its journal is ignored.
[[noreturn]] void run_worker(const std::vector<ExperimentConfig>& trials,
                             const CampaignCli& cli,
                             SupervisorOptions options);

/// The one campaign entry point benches call: dispatches on the parsed
/// CLI — worker mode (never returns), multi-process coordinator
/// (--workers given), or the classic in-process supervised run.
[[nodiscard]] CampaignReport run_campaign(
    const std::vector<ExperimentConfig>& trials, const CampaignCli& cli,
    std::function<void(const TrialProgress&)> progress);

}  // namespace fourbit::runner
