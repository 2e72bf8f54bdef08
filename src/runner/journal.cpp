#include "runner/journal.hpp"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/byte_io.hpp"
#include "common/crc16.hpp"

namespace fourbit::runner {
namespace {

constexpr std::size_t kFrameHeaderBytes = 6;  // magic u16 + length u32
constexpr std::size_t kFrameCrcBytes = 2;
constexpr std::uint8_t kVersion = 2;

std::atomic<std::uint64_t> g_write_failures{0};

void warn_write_failure(const char* what, int err) {
  g_write_failures.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "fourbit-journal: %s (%s); journaling disabled for the rest "
               "of the campaign (runner/journal_write_failures)\n",
               what, std::strerror(err));
  std::fflush(stderr);
}

// Every field of ExperimentResult, in declaration order. Bump kVersion
// when this layout changes; load() drops records of other versions.
void encode_result(ByteWriter& w, const ExperimentResult& r) {
  w.f64(r.cost);
  w.f64(r.delivery_ratio);
  w.f64(r.mean_depth);
  w.u32(static_cast<std::uint32_t>(r.per_node_delivery.size()));
  for (const double d : r.per_node_delivery) w.f64(d);
  w.u64(r.generated);
  w.u64(r.delivered);
  w.u64(r.data_tx);
  w.u64(r.beacon_tx);
  w.u64(r.radio_frames);
  w.u64(r.retx_drops);
  w.u64(r.queue_drops);
  w.u64(r.duplicates);
  w.u64(r.parent_changes);
  w.u32(static_cast<std::uint32_t>(r.final_tree.depths.size()));
  for (const int d : r.final_tree.depths) {
    w.u32(static_cast<std::uint32_t>(d));
  }
  w.f64(r.final_tree.mean_depth);
  w.u32(static_cast<std::uint32_t>(r.final_tree.routed));
  w.u32(static_cast<std::uint32_t>(r.final_tree.total));
  w.u64(r.node_crashes);
  w.u64(r.node_reboots);
  w.u64(r.link_outages);
  w.u64(r.route_losses);
  w.u64(r.parent_evictions);
  w.u64(r.pin_refusals);
  w.f64(r.mean_time_to_reroute_s);
  w.f64(r.max_time_to_reroute_s);
  w.f64(r.mean_time_to_first_route_s);
  w.f64(r.mean_table_refill_s);
  w.u64(r.generated_during_outage);
  w.u64(r.generated_post_outage);
  w.f64(r.delivery_during_outage);
  w.f64(r.delivery_post_outage);
  w.f64(r.worst_node_mah);
  w.f64(r.mean_tx_mah);
  w.f64(r.projected_lifetime_days);
  w.u64(r.arena_bytes);
  w.u64(r.eq_resizes);
}

ExperimentResult decode_result(ByteReader& r) {
  ExperimentResult out;
  out.cost = r.f64();
  out.delivery_ratio = r.f64();
  out.mean_depth = r.f64();
  const std::uint32_t deliveries = r.u32();
  out.per_node_delivery.reserve(deliveries);
  for (std::uint32_t i = 0; i < deliveries && r.ok(); ++i) {
    out.per_node_delivery.push_back(r.f64());
  }
  out.generated = r.u64();
  out.delivered = r.u64();
  out.data_tx = r.u64();
  out.beacon_tx = r.u64();
  out.radio_frames = r.u64();
  out.retx_drops = r.u64();
  out.queue_drops = r.u64();
  out.duplicates = r.u64();
  out.parent_changes = r.u64();
  const std::uint32_t depths = r.u32();
  out.final_tree.depths.reserve(depths);
  for (std::uint32_t i = 0; i < depths && r.ok(); ++i) {
    out.final_tree.depths.push_back(static_cast<int>(r.u32()));
  }
  out.final_tree.mean_depth = r.f64();
  out.final_tree.routed = r.u32();
  out.final_tree.total = r.u32();
  out.node_crashes = r.u64();
  out.node_reboots = r.u64();
  out.link_outages = r.u64();
  out.route_losses = r.u64();
  out.parent_evictions = r.u64();
  out.pin_refusals = r.u64();
  out.mean_time_to_reroute_s = r.f64();
  out.max_time_to_reroute_s = r.f64();
  out.mean_time_to_first_route_s = r.f64();
  out.mean_table_refill_s = r.f64();
  out.generated_during_outage = r.u64();
  out.generated_post_outage = r.u64();
  out.delivery_during_outage = r.f64();
  out.delivery_post_outage = r.f64();
  out.worst_node_mah = r.f64();
  out.mean_tx_mah = r.f64();
  out.projected_lifetime_days = r.f64();
  out.arena_bytes = r.u64();
  out.eq_resizes = r.u64();
  return out;
}

/// Deletes every "<stem>.w<digit>..." sibling of the journal at `stem`.
void remove_shard_files(const std::string& stem) {
  namespace fs = std::filesystem;
  const fs::path stem_path{stem};
  const fs::path dir =
      stem_path.has_parent_path() ? stem_path.parent_path() : fs::path{"."};
  const std::string prefix = stem_path.filename().string() + ".w";
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator{dir, ec}) {
    const std::string name = dirent.path().filename().string();
    if (name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        std::isdigit(static_cast<unsigned char>(name[prefix.size()])) != 0) {
      fs::remove(dirent.path(), ec);
    }
  }
}

}  // namespace

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return bytes;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(file);
  return bytes;
}

std::vector<std::uint8_t> encode_frame(std::uint16_t magic,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size() + kFrameCrcBytes);
  ByteWriter w{frame};
  w.u16(magic);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  w.u16(crc16(payload));
  return frame;
}

FrameView read_frame(std::span<const std::uint8_t> bytes,
                     std::size_t max_payload) {
  FrameView frame;
  if (bytes.size() < kFrameHeaderBytes) return frame;
  ByteReader header{bytes.first(kFrameHeaderBytes)};
  frame.magic = header.u16();
  const std::size_t length = header.u32();
  if (length > max_payload) {
    frame.status = FrameStatus::kBad;
    return frame;
  }
  const std::size_t size = kFrameHeaderBytes + length + kFrameCrcBytes;
  if (bytes.size() < size) return frame;
  const auto payload = bytes.subspan(kFrameHeaderBytes, length);
  ByteReader crc{bytes.subspan(kFrameHeaderBytes + length, kFrameCrcBytes)};
  if (crc.u16() != crc16(payload)) {
    frame.status = FrameStatus::kBad;
    return frame;
  }
  frame.status = FrameStatus::kOk;
  frame.payload = payload;
  frame.size = size;
  return frame;
}

std::vector<std::uint8_t> encode_journal_record(const JournalEntry& entry) {
  std::vector<std::uint8_t> payload;
  ByteWriter writer{payload};
  writer.u8(kVersion);
  writer.u32(entry.trial_index);
  writer.u64(entry.seed);
  encode_result(writer, entry.result);
  return encode_frame(kJournalMagic, payload);
}

std::optional<JournalEntry> decode_journal_record_payload(
    std::span<const std::uint8_t> payload) {
  ByteReader reader{payload};
  if (reader.u8() != kVersion) return std::nullopt;
  JournalEntry entry;
  entry.trial_index = reader.u32();
  entry.seed = reader.u64();
  entry.result = decode_result(reader);
  if (!reader.ok() || reader.remaining() != 0) return std::nullopt;
  return entry;
}

TrialJournal::LoadResult TrialJournal::load(const std::string& path) {
  LoadResult out;
  const std::vector<std::uint8_t> bytes = read_file(path);  // missing: empty
  std::span<const std::uint8_t> rest{bytes};
  while (!rest.empty()) {
    // Any framing, CRC or decode failure from here on means a torn tail
    // (or corruption); the suffix cannot be trusted, so replay stops.
    const FrameView frame = read_frame(rest, kMaxJournalPayloadBytes);
    std::optional<JournalEntry> entry;
    if (frame.status == FrameStatus::kOk && frame.magic == kJournalMagic) {
      entry = decode_journal_record_payload(frame.payload);
    }
    if (!entry) {
      out.torn = true;
      break;
    }
    out.entries.push_back(std::move(*entry));
    out.clean_bytes += frame.size;
    rest = rest.subspan(frame.size);
  }
  return out;
}

TrialJournal TrialJournal::open_append(const std::string& path) {
  // A process killed mid-append leaves a torn tail. Appending AFTER it
  // would strand every subsequent record: framing is lost at the first
  // bad byte, so load() could never reach them. Truncate to the clean
  // prefix first — exactly the bytes load() would replay anyway.
  const LoadResult loaded = load(path);
  if (loaded.torn) {
    std::error_code ec;
    std::filesystem::resize_file(path, loaded.clean_bytes, ec);
    if (ec) {
      throw std::runtime_error("cannot truncate torn trial journal tail: " +
                               path);
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    throw std::runtime_error("cannot open trial journal for append: " + path);
  }
  return TrialJournal{file};
}

void TrialJournal::append(std::uint32_t trial_index, std::uint64_t seed,
                          const ExperimentResult& result) {
  if (file_ == nullptr) return;  // latched disabled by an earlier failure
  append_frames(encode_journal_record({trial_index, seed, result}));
}

void TrialJournal::append_frames(std::span<const std::uint8_t> frames) {
  // Latched disabled by an earlier failure, or nothing to write.
  if (file_ == nullptr || frames.empty()) return;

  // One fsync per write: a journaled record must survive SIGKILL the
  // moment the append returns — that is the whole point of the journal.
  // A failure anywhere in write/flush/fsync (ENOSPC, EIO) only costs
  // that safety net, so it must not abort the campaign: latch the
  // journal disabled and keep running. The partial frame left behind
  // is a torn tail, which load()/open_append() already drop/truncate.
  const bool wrote =
      std::fwrite(frames.data(), 1, frames.size(), file_) == frames.size() &&
      std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0;
  if (wrote) return;

  warn_write_failure("write failed", errno);
  std::fclose(file_);
  file_ = nullptr;
}

int TrialJournal::fd() const {
  return file_ != nullptr ? ::fileno(file_) : -1;
}

std::uint64_t TrialJournal::write_failures() {
  return g_write_failures.load(std::memory_order_relaxed);
}

TrialJournal& TrialJournal::operator=(TrialJournal&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

TrialJournal::~TrialJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

CampaignJournal::CampaignJournal(std::string stem,
                                 const std::vector<ExperimentConfig>& trials,
                                 CampaignReport& report)
    : stem_(std::move(stem)),
      trials_(trials),
      in_main_(trials.size(), 0),
      failures_before_(TrialJournal::write_failures()) {
  if (stem_.empty()) return;
  const auto replay = [&](const std::string& path, bool main) {
    TrialJournal::LoadResult loaded = TrialJournal::load(path);
    report.journal_torn = report.journal_torn || loaded.torn;
    for (auto& entry : loaded.entries) {
      const std::size_t i = entry.trial_index;
      if (i >= trials.size() || entry.seed != trials[i].seed) continue;
      if (main) in_main_[i] = 1;
      if (report.completed[i]) continue;
      report.results[i] = std::move(entry.result);
      report.completed[i] = 1;
      ++report.replayed;
    }
  };
  replay(stem_, true);
  replay(shard_path(stem_), false);
  shard_ = TrialJournal::open_append(shard_path(stem_));
}

void CampaignJournal::record(std::size_t index,
                             const ExperimentResult& result) {
  if (!shard_) return;
  const std::lock_guard<std::mutex> lock{mutex_};
  shard_->append(static_cast<std::uint32_t>(index), trials_[index].seed,
                 result);
}

void CampaignJournal::finish(CampaignReport& report) {
  if (shard_) {
    shard_.reset();
    std::vector<std::uint8_t> frames;
    for (std::size_t i = 0; i < trials_.size(); ++i) {
      if (!report.completed[i] || in_main_[i]) continue;
      const auto frame = encode_journal_record(
          {static_cast<std::uint32_t>(i), trials_[i].seed, report.results[i]});
      frames.insert(frames.end(), frame.begin(), frame.end());
    }
    bool compacted = false;
    try {
      TrialJournal main = TrialJournal::open_append(stem_);
      main.append_frames(frames);
      compacted = main.healthy();
    } catch (const std::runtime_error&) {
      warn_write_failure("cannot reopen the main journal", errno);
    }
    // Everything is in the main journal now: the shard and the workers'
    // flight snapshots ("<stem>.w<k>.t<i>.flight") are spent. A failed
    // compaction keeps them, so the next run can still resume.
    if (compacted) remove_shard_files(stem_);
  }
  report.journal_write_failures =
      TrialJournal::write_failures() - failures_before_;
}

std::string CampaignJournal::shard_path(const std::string& stem) {
  return stem + ".w1000000.journal";
}

}  // namespace fourbit::runner
