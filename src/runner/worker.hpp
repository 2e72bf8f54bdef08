// Multi-process campaign execution: a coordinator that fork/execs
// worker processes and survives anything a trial can do to them.
//
// The in-process supervisor (supervisor.hpp) catches what C++ lets it
// catch — exceptions, asserts, cooperative budget timeouts. It is
// structurally blind to SIGSEGV, SIGBUS, OOM kills and std::terminate:
// those take the whole process, and every sibling trial, with it.
// run_multiprocess moves the isolation boundary to processes:
//
//   * The coordinator self-execs argv with hidden --worker-* flags; a
//     worker rebuilds the identical trial list from argv (every bench
//     derives trials purely from its arguments) and runs only its
//     assigned index spans via SupervisorOptions::subset.
//   * Workers report status — hello, heartbeats, trial start/done/
//     failed — over a CRC-framed pipe. RESULTS never ride the pipe:
//     each worker appends them to its own crash-safe journal shard
//     ("<stem>.w<k>.journal", journal.hpp), which is what makes both
//     worker and coordinator deaths recoverable.
//   * The coordinator reaps deaths with waitpid and converts fatal
//     signals / nonzero exits / torn pipe frames into
//     FailureKind::kHardCrash, attaching the worker's last flushed
//     flight-recorder snapshot when one exists. Dead workers respawn
//     with capped exponential backoff; a trial that keeps killing its
//     worker is marked failed-permanent after max_trial_crashes, so a
//     poisonous config degrades the campaign instead of wedging it.
//   * At the end the coordinator merges all shards into one
//     CampaignReport that is bit-identical to a single-process run for
//     every surviving trial, at any --workers / --threads combination.
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

// ---- worker -> coordinator pipe protocol ------------------------------
//
// One direction only (worker writes, coordinator reads): the worker's
// entire input is its argv, so a torn or corrupt frame can always be
// blamed on the worker and handled as a hard crash — never a protocol
// deadlock. Frame layout mirrors the journal:
//     magic   u16  0x4657 ("FW")
//     length  u32  payload byte count
//     payload      version u8 | kind u8 | worker u32 | trial_index u32
//                  | seed u64 | attempt u32 | failure_kind u8
//                  | retried_total u32 | what (u32 + bytes)
//                  | flight (u32 + 37-byte events)
//     crc     u16  CRC-16/CCITT over the payload

enum class WorkerRecordKind : std::uint8_t {
  kHello = 0,      // first record after exec
  kHeartbeat = 1,  // liveness tick (heartbeat_interval_ms cadence)
  kTrialStart = 2, // a trial's first attempt is beginning
  /// Trial completed; its result is in the shard. `what` carries the
  /// trial's final telemetry as a fourbit.status/1 payload.
  kTrialDone = 3,
  kTrialFailed = 4,// trial failed terminally in-process (soft failure)
  kBye = 5,        // clean shutdown follows
  /// Periodic observability: `what` carries the worker's live view
  /// (its in-flight trials' registries) as a fourbit.status/1 payload
  /// (runner/status.hpp codec). Strictly off-band — the coordinator
  /// shows it in --status-json and the ticker until the next one
  /// replaces it; it never influences trial accounting.
  kStatus = 6,
};

struct WorkerRecord {
  WorkerRecordKind kind = WorkerRecordKind::kHeartbeat;
  std::uint32_t worker = 0;
  std::uint32_t trial_index = 0;
  std::uint64_t seed = 0;
  std::uint32_t attempt = 0;       // attempts consumed by this trial
  FailureKind failure_kind = FailureKind::kException;  // kTrialFailed
  std::uint32_t retried_total = 0; // retries so far, this incarnation
  std::string what;                // kTrialFailed: the failure message
  std::vector<sim::TelemetryEvent> flight;  // kTrialFailed only
};

/// Worker status frame magic ("FW"). The dispatch transport multiplexes
/// status frames over the host/coordinator socket and dispatches on it.
inline constexpr std::uint16_t kWorkerPipeMagic = 0x4657;

/// Serializes one record as a complete frame (header + payload + CRC).
[[nodiscard]] std::vector<std::uint8_t> encode_worker_record(
    const WorkerRecord& record);

/// Decodes one status frame payload (the bytes between the length field
/// and the CRC). Returns nullopt on version or layout mismatch.
[[nodiscard]] std::optional<WorkerRecord> decode_worker_record_payload(
    std::span<const std::uint8_t> payload);

/// Incremental frame parser over an arbitrary byte stream. Feed bytes
/// as they arrive; drain complete records with next(). Any framing or
/// CRC violation latches corrupt() — the stream is untrustworthy from
/// that point and the worker behind it gets hard-crash treatment.
class WorkerPipeParser {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  /// Next complete record, or nullopt (need more bytes / corrupt).
  [[nodiscard]] std::optional<WorkerRecord> next();
  [[nodiscard]] bool corrupt() const { return corrupt_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;  // consumed prefix, compacted opportunistically
  bool corrupt_ = false;
};

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
// flight_snapshot_path(shard, index) (write-temp-then-rename, so the
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

// ---- the coordinator --------------------------------------------------

struct MultiprocessOptions {
  /// Trial-level policy (threads = per-worker threads; journal_path =
  /// the main journal stem, also where shards live; on_trial_start and
  /// on_trial_done fire on the coordinator as workers report — result
  /// pointers are null, results only exist after the final shard merge).
  SupervisorOptions supervisor;
  std::size_t workers = 1;
  /// The self-exec command: the ORIGINAL argv (CampaignCli::exec_argv).
  /// The coordinator appends --worker-fd/--worker-id/--worker-shard/
  /// --worker-trials when spawning.
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

  /// Backoff between a worker death and its respawn, seeded by the
  /// first still-pending trial so respawn timing is deterministic.
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

/// Runs the campaign across worker processes. Blocks until every trial
/// is settled (completed, failed, or failed-permanent). Never throws on
/// worker misbehavior — only on coordinator-side I/O setup errors.
[[nodiscard]] CampaignReport run_multiprocess(
    const std::vector<ExperimentConfig>& trials,
    const MultiprocessOptions& options);

/// Worker-mode entry: runs the assigned spans via run_supervised with
/// the shard journal and streams status over cli.worker_fd, then exits
/// the process (never returns). `options` is the worker's supervisor
/// policy — typically cli.supervisor_options(), with run_trial
/// overridden by tests.
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
