// Live campaign observability: the `fourbit.status/1` snapshot record
// and the accumulator behind it.
//
// A StatusSnapshot is a point-in-time picture of a running campaign:
// trial lifecycle counts (done/failed/retried/in-flight), throughput and
// ETA, one row per worker/host source with its lease state and health,
// and the campaign's telemetry metrics (StatusBoard: the final registries
// of settled trials plus the live view of trials still running). Workers
// and host agents stream their live view as FT kStatus control frames
// and each settled trial's final registry in its kTrialDone record, over
// their coordinator session (transport.hpp). The coordinator publishes via
// `--status-json` (write-temp-then-rename, so the file is always one
// complete JSON object) and the live ticker.
//
// Everything here is strictly off-band: snapshots never touch stdout,
// CampaignReport, or `--journal` files, so clean-run bytes are identical
// with or without status enabled.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/telemetry.hpp"

namespace fourbit::runner {

inline constexpr std::string_view kStatusSchema = "fourbit.status/1";

/// One contributing process/session in a merged snapshot.
struct StatusSource {
  enum class Kind : std::uint8_t { kLocal = 0, kWorker = 1, kHost = 2 };

  std::string name;  // "local", "w3", "127.0.0.1:19731"
  Kind kind = Kind::kLocal;
  bool alive = true;
  bool retired = false;     // crash-loop quarantined (hosts)
  std::uint64_t done = 0;   // trials this source finished cleanly
  std::uint64_t failed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t losses = 0;     // session deaths / respawns of this source
  std::uint64_t fruitless = 0;  // consecutive fruitless sessions (hosts)
  std::string lease;            // current lease span, "" when idle
};

struct StatusCounter {
  std::string component;
  std::string name;
  std::uint64_t value = 0;
};
struct StatusGauge {
  std::string component;
  std::string name;
  double value = 0.0;
};
struct StatusHistogram {
  std::string component;
  std::string name;
  sim::Histogram hist;
};

struct StatusSnapshot {
  std::uint64_t seq = 0;  // per-writer, strictly increasing
  std::uint64_t total = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t retried = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t replayed = 0;  // journal replays folded into `done`
  std::uint64_t hard_crashes = 0;
  std::uint64_t worker_respawns = 0;
  std::uint64_t host_losses = 0;
  std::uint64_t lease_reassignments = 0;
  double elapsed_s = 0.0;
  double trials_per_s = 0.0;
  double eta_s = 0.0;  // < 0 = unknown (no completions yet)
  std::vector<StatusSource> sources;
  std::vector<StatusCounter> counters;
  std::vector<StatusGauge> gauges;
  std::vector<StatusHistogram> histograms;
};

/// Metric payload codec (ByteWriter/ByteReader, big-endian, histogram
/// bins run-compressed): the counter, gauge and histogram tables only —
/// what a worker or host sends upward (a live view, or a settled
/// trial's registry); lifecycle counts and sources are the
/// coordinator's own and never cross the wire. The bytes travel inside
/// existing CRC-framed records — FW kTrialDone `what` and FT kStatus
/// `text` — so framing and corruption latching are inherited. decode
/// returns nullopt on any malformed payload (bad version, oversized
/// tables, truncation).
[[nodiscard]] std::vector<std::uint8_t> encode_status_snapshot(
    const StatusSnapshot& snapshot);
[[nodiscard]] std::optional<StatusSnapshot> decode_status_snapshot(
    std::span<const std::uint8_t> payload);
/// The same codec for payloads carried in a record's string field.
[[nodiscard]] std::string status_payload(const StatusSnapshot& snapshot);
[[nodiscard]] std::optional<StatusSnapshot> decode_status_snapshot(
    const std::string& payload);

/// Renders one `fourbit.status/1` JSON object (single line, trailing
/// newline included) with histogram percentiles precomputed.
[[nodiscard]] std::string status_json(const StatusSnapshot& snapshot);

/// Write-temp-then-rename publisher: a reader polling `path` observes
/// either the previous complete snapshot or this one, never a torn mix.
bool write_status_file(const std::string& path, const std::string& json);

/// Stamps sequencing and timing onto an assembled snapshot: trials_per_s
/// counts only fresh completions (journal replays excluded), eta_s
/// extrapolates the remainder at that rate (-1 until a rate exists).
void stamp_status(StatusSnapshot& snapshot, std::uint64_t seq,
                  double elapsed_s, std::uint64_t total);

/// Fires `tick` every interval_ms on a background thread, plus once at
/// destruction so the last published snapshot is the settled end state.
/// Used where no coordinator loop exists to piggyback on (the
/// coordinator's local pass, which blocks in run_supervised); `tick`
/// must be safe against concurrent trial threads — StatusBoard is.
class StatusPublisher {
 public:
  StatusPublisher(std::uint64_t interval_ms, std::function<void()> tick);
  ~StatusPublisher();
  StatusPublisher(const StatusPublisher&) = delete;
  StatusPublisher& operator=(const StatusPublisher&) = delete;

 private:
  std::function<void()> tick_;
  std::uint64_t interval_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// A telemetry registry as status metrics: per-node rows aggregated
/// into one row per (component, name) — counters and gauges summed,
/// histograms merged. Lifecycle fields stay zero.
[[nodiscard]] StatusSnapshot registry_metrics(
    const sim::TelemetryContext& telemetry);

/// Thread-safe campaign accumulator. Metrics come in two kinds:
///   * totals — the final registry of each settled trial, stored by
///     trial index (a repeated settle of one index is last-wins, the
///     rule results use). Summed at snapshot time: counters and
///     histograms add, gauges take the max over trials, so totals do
///     not depend on completion order.
///   * live views — the latest registry of work still running, keyed by
///     trial index where trials run and by source on a coordinator.
///     Each push replaces the view whole; a view never enters totals.
/// A retried or failed attempt's live view is dropped, so nothing a
/// trial did before its settling attempt is ever counted.
class StatusBoard {
 public:
  // ---- trial lifecycle (where trials run) ----------------------------
  void trial_started(std::uint64_t trial);
  /// A failed attempt about to be retried: its live view is dropped.
  void attempt_reset(std::uint64_t trial);
  /// A clean settle moves the trial's live view into the totals; a
  /// failed one drops it. The wall time is one "runner"/"trial_wall_ms"
  /// sample either way.
  void trial_settled(std::uint64_t trial, bool failed,
                     std::uint64_t wall_ms);
  void add_replayed(std::uint64_t n);

  // ---- metrics ---------------------------------------------------------
  void set_live(std::uint64_t key, StatusSnapshot metrics);
  void drop_live(std::uint64_t key);
  /// Stores a trial's final metrics in the totals (last-wins per index);
  /// coordinators call it with what a worker or host reported.
  void settle_metrics(std::uint64_t trial, StatusSnapshot metrics);
  /// A settled trial's final metrics (empty tables when none).
  [[nodiscard]] StatusSnapshot trial_metrics(std::uint64_t trial) const;
  /// One "runner"/"trial_wall_ms" sample for a trial that settled
  /// elsewhere, timed by a coordinator from the trial's start record.
  void record_trial_wall(std::chrono::steady_clock::time_point started);

  // ---- snapshot assembly ---------------------------------------------
  /// Lifecycle counts plus totals and every live view, in sorted
  /// (component, name) order. Leaves seq, total, timing, and sources
  /// for the caller.
  void fill_snapshot(StatusSnapshot& out) const;
  /// The live views alone: what a worker or host streams upward.
  [[nodiscard]] StatusSnapshot live_view() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, StatusSnapshot> settled_;
  std::map<std::uint64_t, StatusSnapshot> live_;
  sim::Histogram trial_wall_ms_;
  std::uint64_t done_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t replayed_ = 0;
};

}  // namespace fourbit::runner
