#include "runner/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/byte_io.hpp"
#include "runner/dispatch.hpp"
#include "runner/journal.hpp"

namespace fourbit::runner {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint16_t kSnapshotMagic = 0x4653;  // "FS"
constexpr std::uint8_t kRecordVersion = 2;
constexpr std::uint8_t kSnapshotVersion = 1;
/// Sanity cap on a status record's message and on a snapshot frame: a
/// length past this is corruption, not a giant record (the largest real
/// record is a kTrialFailed carrying a 128-event flight plus an
/// exception message).
constexpr std::size_t kMaxFrameBytes = 1 << 20;
constexpr std::size_t kMaxFlightEvents = 4096;

void encode_event(ByteWriter& w, const sim::TelemetryEvent& e) {
  w.u64(static_cast<std::uint64_t>(e.at.us()));
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.u16(e.node);
  w.u16(e.peer);
  w.u16(e.arg);
  w.u16(e.arg2);
  w.f64(e.v0);
  w.f64(e.v1);
}

[[nodiscard]] std::optional<sim::TelemetryEvent> decode_event(ByteReader& r) {
  sim::TelemetryEvent e;
  e.at = sim::Time::from_us(static_cast<std::int64_t>(r.u64()));
  const std::uint8_t kind = r.u8();
  if (kind >= sim::kEventKindCount) return std::nullopt;
  e.kind = static_cast<sim::EventKind>(kind);
  e.node = r.u16();
  e.peer = r.u16();
  e.arg = r.u16();
  e.arg2 = r.u16();
  e.v0 = r.f64();
  e.v1 = r.f64();
  if (!r.ok()) return std::nullopt;
  return e;
}

}  // namespace

std::optional<WorkerRecord> decode_worker_record_payload(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  if (r.u8() != kRecordVersion) return std::nullopt;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(WorkerRecordKind::kTrialFailed)) {
    return std::nullopt;
  }
  WorkerRecord rec;
  rec.kind = static_cast<WorkerRecordKind>(kind);
  rec.trial_index = r.u32();
  rec.seed = r.u64();
  rec.attempt = r.u32();
  const std::uint8_t failure_kind = r.u8();
  if (failure_kind >= kFailureKindCount) return std::nullopt;
  rec.failure_kind = static_cast<FailureKind>(failure_kind);
  rec.retried_total = r.u32();
  const std::uint32_t what_len = r.u32();
  if (!r.ok() || what_len > kMaxFrameBytes ||
      r.remaining() < what_len) {
    return std::nullopt;
  }
  rec.what.reserve(what_len);
  for (std::uint32_t i = 0; i < what_len; ++i) {
    rec.what.push_back(static_cast<char>(r.u8()));
  }
  const std::uint32_t flight_count = r.u32();
  if (!r.ok() || flight_count > kMaxFlightEvents) return std::nullopt;
  rec.flight.reserve(flight_count);
  for (std::uint32_t i = 0; i < flight_count; ++i) {
    auto event = decode_event(r);
    if (!event) return std::nullopt;
    rec.flight.push_back(*event);
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return rec;
}

std::vector<std::uint8_t> encode_worker_record(const WorkerRecord& record) {
  std::vector<std::uint8_t> payload;
  ByteWriter w{payload};
  w.u8(kRecordVersion);
  w.u8(static_cast<std::uint8_t>(record.kind));
  w.u32(record.trial_index);
  w.u64(record.seed);
  w.u32(record.attempt);
  w.u8(static_cast<std::uint8_t>(record.failure_kind));
  w.u32(record.retried_total);
  w.u32(static_cast<std::uint32_t>(record.what.size()));
  for (const char c : record.what) w.u8(static_cast<std::uint8_t>(c));
  w.u32(static_cast<std::uint32_t>(record.flight.size()));
  for (const auto& event : record.flight) encode_event(w, event);
  return encode_frame(kWorkerPipeMagic, payload);
}

std::string format_index_spans(const std::vector<std::size_t>& indices) {
  std::vector<std::size_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::string out;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(sorted[i]);
    if (j > i) {
      out += '-';
      out += std::to_string(sorted[j]);
    }
    i = j + 1;
  }
  return out;
}

std::optional<std::vector<std::size_t>> parse_index_spans(
    const std::string& spans) {
  std::vector<std::size_t> out;
  if (spans.empty()) return out;
  std::size_t pos = 0;
  const auto parse_number = [&](std::size_t& value) -> bool {
    if (pos >= spans.size() || spans[pos] < '0' || spans[pos] > '9') {
      return false;
    }
    value = 0;
    while (pos < spans.size() && spans[pos] >= '0' && spans[pos] <= '9') {
      const std::size_t digit = static_cast<std::size_t>(spans[pos] - '0');
      if (value > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
        return false;
      }
      value = value * 10 + digit;
      ++pos;
    }
    return true;
  };
  while (true) {
    std::size_t lo = 0;
    if (!parse_number(lo)) return std::nullopt;
    std::size_t hi = lo;
    if (pos < spans.size() && spans[pos] == '-') {
      ++pos;
      if (!parse_number(hi) || hi < lo) return std::nullopt;
    }
    for (std::size_t v = lo; v <= hi; ++v) out.push_back(v);
    if (pos == spans.size()) break;
    if (spans[pos] != ',') return std::nullopt;
    ++pos;
    if (pos == spans.size()) return std::nullopt;  // trailing comma
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void write_flight_snapshot(const std::string& path, std::size_t trial_index,
                           std::uint64_t seed,
                           const std::vector<sim::TelemetryEvent>& events) {
  std::vector<std::uint8_t> payload;
  ByteWriter w{payload};
  w.u8(kSnapshotVersion);
  w.u32(static_cast<std::uint32_t>(trial_index));
  w.u64(seed);
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const auto& event : events) encode_event(w, event);
  const auto frame = encode_frame(kSnapshotMagic, payload);

  // Write-temp-then-rename: the snapshot at `path` is always either a
  // previous complete snapshot or this one — never a torn mix. No fsync:
  // the evidence must survive a *process* death, not a power cut.
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return;  // best-effort: no evidence beats no trial
  const bool wrote =
      std::fwrite(frame.data(), 1, frame.size(), file) == frame.size();
  std::fclose(file);
  if (!wrote) {
    std::remove(tmp.c_str());
    return;
  }
  std::rename(tmp.c_str(), path.c_str());
}

std::optional<FlightSnapshot> load_flight_snapshot(const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  const FrameView frame = read_frame(bytes, kMaxFrameBytes);
  if (frame.status != FrameStatus::kOk || frame.magic != kSnapshotMagic ||
      frame.size != bytes.size()) {
    return std::nullopt;
  }
  ByteReader r{frame.payload};
  if (r.u8() != kSnapshotVersion) return std::nullopt;
  FlightSnapshot snap;
  snap.trial_index = r.u32();
  snap.seed = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxFlightEvents) return std::nullopt;
  snap.events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto event = decode_event(r);
    if (!event) return std::nullopt;
    snap.events.push_back(*event);
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return snap;
}

CampaignReport run_campaign(
    const std::vector<ExperimentConfig>& trials, const CampaignCli& cli,
    std::function<void(const TrialProgress&)> progress) {
  if (cli.worker_fd >= 0) {
    run_worker(trials, cli, cli.supervisor_options());  // never returns
  }
  if (cli.serve_port >= 0) {
    run_host_agent(trials, cli, cli.supervisor_options());  // never returns
  }
  if (!cli.hosts.empty()) {
    DispatchOptions options;
    options.supervisor = cli.supervisor_options();
    options.supervisor.on_trial_done = std::move(progress);
    options.hosts = cli.hosts;
    options.lease_trials = cli.lease_trials;
    // Same backstop rationale as the worker pool below: the remote
    // host's own SimBudget should win; this only catches hosts whose
    // machine we cannot signal.
    options.trial_timeout_ms =
        cli.max_trial_ms != 0 ? cli.max_trial_ms * 2 + 5000 : 0;
    options.status_path = cli.status_json;
    options.status_interval_ms = cli.status_interval_ms;
    return run_distributed(trials, options);
  }
  if (cli.workers == 0) {
    auto options = cli.supervisor_options();
    options.on_trial_done = std::move(progress);
    if (cli.status_json.empty()) return run_supervised(trials, options);
    // In-process run with live status: a board fed by the supervisor
    // and a publisher thread writing the file. The publisher's
    // destructor runs after run_supervised returns, so the last write
    // is the settled end state.
    StatusBoard board;
    options.status = &board;
    const auto started = Clock::now();
    std::uint64_t seq = 0;
    StatusPublisher publisher{cli.status_interval_ms, [&] {
      StatusSnapshot snap;
      board.fill_snapshot(snap);
      StatusSource src;
      src.name = "local";
      src.kind = StatusSource::Kind::kLocal;
      src.done = snap.done;
      src.failed = snap.failed;
      src.in_flight = snap.in_flight;
      snap.sources.push_back(std::move(src));
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - started).count();
      stamp_status(snap, ++seq, elapsed, trials.size());
      write_status_file(cli.status_json, status_json(snap));
    }};
    return run_supervised(trials, options);
  }
  MultiprocessOptions options;
  options.supervisor = cli.supervisor_options();
  options.supervisor.on_trial_done = std::move(progress);
  options.workers = cli.workers;
  options.exec_argv = cli.exec_argv;
  options.status_path = cli.status_json;
  options.status_interval_ms = cli.status_interval_ms;
  // The coordinator backstop must out-wait the in-worker SimBudget (the
  // cooperative watchdog should win the race and record a retryable
  // soft timeout); it only fires on non-cooperative hangs.
  options.trial_timeout_ms =
      cli.max_trial_ms != 0 ? cli.max_trial_ms * 2 + 5000 : 0;
  return run_multiprocess(trials, options);
}

}  // namespace fourbit::runner
