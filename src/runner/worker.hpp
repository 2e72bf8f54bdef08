// Multi-process campaign execution: local worker processes that take
// the crash of any trial with them, and the one campaign entry point.
//
// The in-process supervisor (supervisor.hpp) catches what C++ lets it
// catch — exceptions, asserts, cooperative budget timeouts. It is
// structurally blind to SIGSEGV, SIGBUS, OOM kills and std::terminate:
// those take the whole process, and every sibling trial, with it.
// DispatchOptions::workers moves the isolation boundary to processes,
// run by the same coordinator loop as a distributed campaign
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
//     transport.hpp). The coordinator records each result in the
//     campaign journal (journal.hpp) the moment it arrives, so a
//     coordinator SIGKILL loses nothing a worker reported. A worker whose
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
//     combination, and so is the --journal file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runner/supervisor.hpp"
#include "sim/telemetry.hpp"

namespace fourbit::runner {

// ---- trial status records ("FW") ---------------------------------------
//
// What a worker or host agent reports about its trials, one frame each:
//     magic   u16  0x4657 ("FW")
//     length  u32  payload byte count
//     payload      version u8 | kind u8 | trial_index u32
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

/// Worker-mode entry (--worker-fd): serves the coordinator session on
/// cli.worker_fd — the host agent's protocol, leases run in-process —
/// then exits the process (never returns). `options` is the worker's
/// supervisor policy — typically cli.supervisor_options(), with
/// run_trial overridden by tests; its journal is ignored.
[[noreturn]] void run_worker(const std::vector<ExperimentConfig>& trials,
                             const CampaignCli& cli,
                             SupervisorOptions options);

/// The one campaign entry point benches call: worker mode and host-agent
/// mode (--worker-fd, --serve: never return), else dispatch_campaign
/// with cli.dispatch_options() — over --hosts, over --workers, or
/// in-process with no peers.
[[nodiscard]] CampaignReport run_campaign(
    const std::vector<ExperimentConfig>& trials, const CampaignCli& cli,
    std::function<void(const TrialProgress&)> progress);

}  // namespace fourbit::runner
