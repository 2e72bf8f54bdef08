#include "runner/status.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "common/byte_io.hpp"
#include "stats/export.hpp"

namespace fourbit::runner {
namespace {

constexpr std::uint8_t kStatusVersion = 1;
// Decode-side sanity caps: a payload past these is corruption (or an
// attacker), not a real campaign.
constexpr std::size_t kMaxString = 512;
constexpr std::size_t kMaxSources = 4096;
constexpr std::size_t kMaxMetricRows = 65536;
constexpr std::size_t kMaxHistRows = 4096;

void write_str(ByteWriter& w, const std::string& s) {
  const std::size_t n = s.size() < kMaxString ? s.size() : kMaxString;
  w.u16(static_cast<std::uint16_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    w.u8(static_cast<std::uint8_t>(s[i]));
  }
}

bool read_str(ByteReader& r, std::string& out) {
  const std::uint16_t n = r.u16();
  if (!r.ok() || n > kMaxString || r.remaining() < n) return false;
  out.clear();
  out.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(r.u8()));
  }
  return r.ok();
}

void append_format(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n) < sizeof buf
                                 ? static_cast<std::size_t>(n)
                                 : sizeof buf - 1);
}

using StatusKey = std::pair<std::string, std::string>;

/// Metric tables keyed by (component, name); std::map keeps snapshot
/// rows in a deterministic order.
struct MetricSum {
  std::map<StatusKey, std::uint64_t> counters;
  std::map<StatusKey, double> gauges;
  std::map<StatusKey, sim::Histogram> histograms;

  /// Counters and histograms add; gauges take the max.
  void add(const StatusSnapshot& metrics) {
    for (const auto& c : metrics.counters) {
      counters[{c.component, c.name}] += c.value;
    }
    for (const auto& g : metrics.gauges) {
      const auto [it, fresh] =
          gauges.try_emplace({g.component, g.name}, g.value);
      if (!fresh) it->second = std::max(it->second, g.value);
    }
    for (const auto& h : metrics.histograms) {
      histograms[{h.component, h.name}].merge(h.hist);
    }
  }

  void write(StatusSnapshot& out) const {
    out.counters.clear();
    for (const auto& [key, value] : counters) {
      out.counters.push_back(StatusCounter{key.first, key.second, value});
    }
    out.gauges.clear();
    for (const auto& [key, value] : gauges) {
      out.gauges.push_back(StatusGauge{key.first, key.second, value});
    }
    out.histograms.clear();
    for (const auto& [key, hist] : histograms) {
      out.histograms.push_back(StatusHistogram{key.first, key.second, hist});
    }
  }
};

const char* source_kind_name(StatusSource::Kind kind) {
  switch (kind) {
    case StatusSource::Kind::kLocal: return "local";
    case StatusSource::Kind::kWorker: return "worker";
    case StatusSource::Kind::kHost: return "host";
  }
  return "?";
}

}  // namespace

std::vector<std::uint8_t> encode_status_snapshot(
    const StatusSnapshot& snapshot) {
  std::vector<std::uint8_t> payload;
  ByteWriter w{payload};
  w.u8(kStatusVersion);
  w.u64(snapshot.seq);
  w.u64(snapshot.total);
  w.u64(snapshot.done);
  w.u64(snapshot.failed);
  w.u64(snapshot.retried);
  w.u64(snapshot.in_flight);
  w.u64(snapshot.replayed);
  w.u64(snapshot.hard_crashes);
  w.u64(snapshot.worker_respawns);
  w.u64(snapshot.host_losses);
  w.u64(snapshot.lease_reassignments);
  w.f64(snapshot.elapsed_s);
  w.f64(snapshot.trials_per_s);
  w.f64(snapshot.eta_s);

  w.u32(static_cast<std::uint32_t>(snapshot.sources.size()));
  for (const auto& s : snapshot.sources) {
    write_str(w, s.name);
    w.u8(static_cast<std::uint8_t>(s.kind));
    w.u8(static_cast<std::uint8_t>((s.alive ? 1 : 0) |
                                   (s.retired ? 2 : 0)));
    w.u64(s.done);
    w.u64(s.failed);
    w.u64(s.in_flight);
    w.u64(s.losses);
    w.u64(s.fruitless);
    write_str(w, s.lease);
  }

  w.u32(static_cast<std::uint32_t>(snapshot.counters.size()));
  for (const auto& c : snapshot.counters) {
    write_str(w, c.component);
    write_str(w, c.name);
    w.u64(c.value);
  }

  w.u32(static_cast<std::uint32_t>(snapshot.gauges.size()));
  for (const auto& g : snapshot.gauges) {
    write_str(w, g.component);
    write_str(w, g.name);
    w.f64(g.value);
  }

  w.u32(static_cast<std::uint32_t>(snapshot.histograms.size()));
  for (const auto& h : snapshot.histograms) {
    write_str(w, h.component);
    write_str(w, h.name);
    w.u64(h.hist.count);
    w.u64(h.hist.sum);
    // Bins are sparse in practice: encode only the occupied ones.
    std::uint8_t occupied = 0;
    for (const auto bin : h.hist.bins) {
      if (bin != 0) ++occupied;
    }
    w.u8(occupied);
    for (std::size_t bin = 0; bin < sim::kHistogramBins; ++bin) {
      if (h.hist.bins[bin] == 0) continue;
      w.u8(static_cast<std::uint8_t>(bin));
      w.u64(h.hist.bins[bin]);
    }
  }
  return payload;
}

std::optional<StatusSnapshot> decode_status_snapshot(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  if (r.u8() != kStatusVersion) return std::nullopt;
  StatusSnapshot snapshot;
  snapshot.seq = r.u64();
  snapshot.total = r.u64();
  snapshot.done = r.u64();
  snapshot.failed = r.u64();
  snapshot.retried = r.u64();
  snapshot.in_flight = r.u64();
  snapshot.replayed = r.u64();
  snapshot.hard_crashes = r.u64();
  snapshot.worker_respawns = r.u64();
  snapshot.host_losses = r.u64();
  snapshot.lease_reassignments = r.u64();
  snapshot.elapsed_s = r.f64();
  snapshot.trials_per_s = r.f64();
  snapshot.eta_s = r.f64();
  if (!r.ok()) return std::nullopt;

  const std::uint32_t n_sources = r.u32();
  if (!r.ok() || n_sources > kMaxSources) return std::nullopt;
  snapshot.sources.reserve(n_sources);
  for (std::uint32_t i = 0; i < n_sources; ++i) {
    StatusSource s;
    if (!read_str(r, s.name)) return std::nullopt;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(StatusSource::Kind::kHost)) {
      return std::nullopt;
    }
    s.kind = static_cast<StatusSource::Kind>(kind);
    const std::uint8_t flags = r.u8();
    s.alive = (flags & 1) != 0;
    s.retired = (flags & 2) != 0;
    s.done = r.u64();
    s.failed = r.u64();
    s.in_flight = r.u64();
    s.losses = r.u64();
    s.fruitless = r.u64();
    if (!read_str(r, s.lease) || !r.ok()) return std::nullopt;
    snapshot.sources.push_back(std::move(s));
  }

  const std::uint32_t n_counters = r.u32();
  if (!r.ok() || n_counters > kMaxMetricRows) return std::nullopt;
  snapshot.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    StatusCounter c;
    if (!read_str(r, c.component) || !read_str(r, c.name)) {
      return std::nullopt;
    }
    c.value = r.u64();
    if (!r.ok()) return std::nullopt;
    snapshot.counters.push_back(std::move(c));
  }

  const std::uint32_t n_gauges = r.u32();
  if (!r.ok() || n_gauges > kMaxMetricRows) return std::nullopt;
  snapshot.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    StatusGauge g;
    if (!read_str(r, g.component) || !read_str(r, g.name)) {
      return std::nullopt;
    }
    g.value = r.f64();
    if (!r.ok()) return std::nullopt;
    snapshot.gauges.push_back(std::move(g));
  }

  const std::uint32_t n_hists = r.u32();
  if (!r.ok() || n_hists > kMaxHistRows) return std::nullopt;
  snapshot.histograms.reserve(n_hists);
  for (std::uint32_t i = 0; i < n_hists; ++i) {
    StatusHistogram h;
    if (!read_str(r, h.component) || !read_str(r, h.name)) {
      return std::nullopt;
    }
    h.hist.count = r.u64();
    h.hist.sum = r.u64();
    const std::uint8_t occupied = r.u8();
    if (!r.ok() || occupied > sim::kHistogramBins) return std::nullopt;
    for (std::uint8_t b = 0; b < occupied; ++b) {
      const std::uint8_t bin = r.u8();
      const std::uint64_t count = r.u64();
      if (!r.ok() || bin >= sim::kHistogramBins) return std::nullopt;
      h.hist.bins[bin] = count;
    }
    snapshot.histograms.push_back(std::move(h));
  }

  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return snapshot;
}

std::string status_payload(const StatusSnapshot& snapshot) {
  const auto bytes = encode_status_snapshot(snapshot);
  return {bytes.begin(), bytes.end()};
}

std::optional<StatusSnapshot> decode_status_snapshot(
    const std::string& payload) {
  return decode_status_snapshot(std::span<const std::uint8_t>{
      reinterpret_cast<const std::uint8_t*>(payload.data()),
      payload.size()});
}

std::string status_json(const StatusSnapshot& snapshot) {
  std::string out;
  out.reserve(1024);
  out += "{\"schema\":\"";
  out += kStatusSchema;
  out += "\",\"type\":\"status\"";
  append_format(out,
                ",\"seq\":%llu,\"total\":%llu,\"done\":%llu,"
                "\"failed\":%llu,\"retried\":%llu,\"in_flight\":%llu,"
                "\"replayed\":%llu",
                static_cast<unsigned long long>(snapshot.seq),
                static_cast<unsigned long long>(snapshot.total),
                static_cast<unsigned long long>(snapshot.done),
                static_cast<unsigned long long>(snapshot.failed),
                static_cast<unsigned long long>(snapshot.retried),
                static_cast<unsigned long long>(snapshot.in_flight),
                static_cast<unsigned long long>(snapshot.replayed));
  append_format(
      out,
      ",\"hard_crashes\":%llu,\"worker_respawns\":%llu,"
      "\"host_losses\":%llu,\"lease_reassignments\":%llu",
      static_cast<unsigned long long>(snapshot.hard_crashes),
      static_cast<unsigned long long>(snapshot.worker_respawns),
      static_cast<unsigned long long>(snapshot.host_losses),
      static_cast<unsigned long long>(snapshot.lease_reassignments));
  append_format(out, ",\"elapsed_s\":%.3f,\"trials_per_s\":%.4f",
                snapshot.elapsed_s, snapshot.trials_per_s);
  if (snapshot.eta_s >= 0.0) {
    append_format(out, ",\"eta_s\":%.1f", snapshot.eta_s);
  } else {
    out += ",\"eta_s\":null";
  }

  out += ",\"sources\":[";
  for (std::size_t i = 0; i < snapshot.sources.size(); ++i) {
    const auto& s = snapshot.sources[i];
    if (i != 0) out += ',';
    append_format(out,
                  "{\"name\":\"%s\",\"kind\":\"%s\",\"alive\":%s,"
                  "\"retired\":%s,\"done\":%llu,\"failed\":%llu,"
                  "\"in_flight\":%llu,\"losses\":%llu,\"fruitless\":%llu,"
                  "\"lease\":\"%s\"}",
                  stats::json_escape(s.name).c_str(),
                  source_kind_name(s.kind), s.alive ? "true" : "false",
                  s.retired ? "true" : "false",
                  static_cast<unsigned long long>(s.done),
                  static_cast<unsigned long long>(s.failed),
                  static_cast<unsigned long long>(s.in_flight),
                  static_cast<unsigned long long>(s.losses),
                  static_cast<unsigned long long>(s.fruitless),
                  stats::json_escape(s.lease).c_str());
  }
  out += ']';

  out += ",\"counters\":[";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    if (i != 0) out += ',';
    append_format(out, "{\"component\":\"%s\",\"name\":\"%s\",\"value\":%llu}",
                  stats::json_escape(c.component).c_str(),
                  stats::json_escape(c.name).c_str(),
                  static_cast<unsigned long long>(c.value));
  }
  out += ']';

  out += ",\"gauges\":[";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& g = snapshot.gauges[i];
    if (i != 0) out += ',';
    append_format(out, "{\"component\":\"%s\",\"name\":\"%s\",\"value\":%.6g}",
                  stats::json_escape(g.component).c_str(),
                  stats::json_escape(g.name).c_str(), g.value);
  }
  out += ']';

  out += ",\"histograms\":[";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    if (i != 0) out += ',';
    append_format(
        out,
        "{\"component\":\"%s\",\"name\":\"%s\",\"count\":%llu,"
        "\"sum\":%llu,\"mean\":%.4g,\"p50\":%.4g,\"p90\":%.4g,"
        "\"p99\":%.4g,\"bins\":[",
        stats::json_escape(h.component).c_str(),
        stats::json_escape(h.name).c_str(),
        static_cast<unsigned long long>(h.hist.count),
        static_cast<unsigned long long>(h.hist.sum), h.hist.mean(),
        h.hist.quantile(0.50), h.hist.quantile(0.90), h.hist.quantile(0.99));
    bool first = true;
    for (std::size_t bin = 0; bin < sim::kHistogramBins; ++bin) {
      if (h.hist.bins[bin] == 0) continue;
      if (!first) out += ',';
      first = false;
      append_format(out, "[%zu,%llu]", bin,
                    static_cast<unsigned long long>(h.hist.bins[bin]));
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

bool write_status_file(const std::string& path, const std::string& json) {
  // Same discipline as write_flight_snapshot: the published file is
  // always either the previous complete snapshot or this one. No fsync
  // (the contract is torn-read safety, not power-cut durability).
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return false;
  const bool wrote =
      std::fwrite(json.data(), 1, json.size(), file) == json.size();
  std::fclose(file);
  if (!wrote) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void stamp_status(StatusSnapshot& snapshot, std::uint64_t seq,
                  double elapsed_s, std::uint64_t total) {
  snapshot.seq = seq;
  snapshot.total = total;
  snapshot.elapsed_s = elapsed_s;
  // Rate and ETA are over SETTLED trials (done + failed): a failing
  // campaign still converges, and replays didn't cost this run time.
  const std::uint64_t settled = snapshot.done + snapshot.failed;
  const std::uint64_t fresh =
      settled > snapshot.replayed ? settled - snapshot.replayed : 0;
  snapshot.trials_per_s =
      elapsed_s > 0.0 ? static_cast<double>(fresh) / elapsed_s : 0.0;
  const std::uint64_t remaining = total > settled ? total - settled : 0;
  if (remaining == 0) {
    snapshot.eta_s = 0.0;
  } else if (snapshot.trials_per_s > 0.0) {
    snapshot.eta_s = static_cast<double>(remaining) / snapshot.trials_per_s;
  } else {
    snapshot.eta_s = -1.0;  // no measurable rate yet
  }
}

StatusPublisher::StatusPublisher(std::uint64_t interval_ms,
                                 std::function<void()> tick)
    : tick_(std::move(tick)),
      interval_ms_(interval_ms < 10 ? 10 : interval_ms) {
  thread_ = std::thread([this] {
    std::unique_lock lock{mutex_};
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stop_; })) {
        break;
      }
      lock.unlock();
      tick_();
      lock.lock();
    }
  });
}

StatusPublisher::~StatusPublisher() {
  {
    std::lock_guard lock{mutex_};
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  tick_();  // the final snapshot: every trial settled
}

// ---- StatusBoard ------------------------------------------------------

StatusSnapshot registry_metrics(const sim::TelemetryContext& telemetry) {
  MetricSum sum;
  for (const auto& row : telemetry.counters()) {
    sum.counters[{row.component, row.name}] += row.value;
  }
  for (const auto& row : telemetry.gauges()) {
    sum.gauges[{row.component, row.name}] += row.value;
  }
  for (const auto& row : telemetry.histograms()) {
    sum.histograms[{row.component, row.name}].merge(row.hist);
  }
  StatusSnapshot out;
  sum.write(out);
  return out;
}

void StatusBoard::trial_started(std::uint64_t /*trial*/) {
  std::lock_guard lock{mutex_};
  ++in_flight_;
}

void StatusBoard::attempt_reset(std::uint64_t trial) {
  std::lock_guard lock{mutex_};
  ++retried_;
  live_.erase(trial);
}

void StatusBoard::trial_settled(std::uint64_t trial, bool failed,
                                std::uint64_t wall_ms) {
  std::lock_guard lock{mutex_};
  if (in_flight_ > 0) --in_flight_;
  if (failed) {
    ++failed_;
  } else {
    ++done_;
  }
  trial_wall_ms_.record(wall_ms);
  auto live = live_.extract(trial);
  if (!failed && !live.empty()) {
    settled_.insert_or_assign(trial, std::move(live.mapped()));
  }
}

void StatusBoard::add_replayed(std::uint64_t n) {
  std::lock_guard lock{mutex_};
  replayed_ += n;
  done_ += n;
}

void StatusBoard::set_live(std::uint64_t key, StatusSnapshot metrics) {
  std::lock_guard lock{mutex_};
  live_.insert_or_assign(key, std::move(metrics));
}

void StatusBoard::drop_live(std::uint64_t key) {
  std::lock_guard lock{mutex_};
  live_.erase(key);
}

void StatusBoard::settle_metrics(std::uint64_t trial,
                                 StatusSnapshot metrics) {
  std::lock_guard lock{mutex_};
  settled_.insert_or_assign(trial, std::move(metrics));
}

StatusSnapshot StatusBoard::trial_metrics(std::uint64_t trial) const {
  std::lock_guard lock{mutex_};
  const auto it = settled_.find(trial);
  return it != settled_.end() ? it->second : StatusSnapshot{};
}

void StatusBoard::record_trial_wall(
    std::chrono::steady_clock::time_point started) {
  const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  std::lock_guard lock{mutex_};
  trial_wall_ms_.record(static_cast<std::uint64_t>(wall.count()));
}

void StatusBoard::fill_snapshot(StatusSnapshot& out) const {
  std::lock_guard lock{mutex_};
  out.done = done_;
  out.failed = failed_;
  out.retried = retried_;
  out.in_flight = in_flight_;
  out.replayed = replayed_;
  MetricSum sum;
  for (const auto& [trial, metrics] : settled_) sum.add(metrics);
  for (const auto& [key, metrics] : live_) sum.add(metrics);
  if (trial_wall_ms_.count != 0) {
    sum.histograms[{"runner", "trial_wall_ms"}].merge(trial_wall_ms_);
  }
  sum.write(out);
}

StatusSnapshot StatusBoard::live_view() const {
  std::lock_guard lock{mutex_};
  MetricSum sum;
  for (const auto& [key, metrics] : live_) sum.add(metrics);
  StatusSnapshot out;
  sum.write(out);
  return out;
}

}  // namespace fourbit::runner
