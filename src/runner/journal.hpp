// The runner's record layer: the one CRC frame format every runner
// record uses, the append-only trial journal, and the campaign journal
// policy every execution path shares.
//
// Frames. Journal records, session status/control frames
// (transport.hpp, worker.hpp) and flight snapshots are all
//     magic    u16   record kind ("FJ", "FW", "FT", "FS")
//     length   u32   payload byte count
//     payload
//     crc      u16   CRC-16/CCITT over the payload
// encode_frame writes one; read_frame parses one off the front of a
// byte span. Nothing else in the runner touches the header or the CRC.
//
// Trial journal (TrialJournal). A multi-hour campaign must not lose
// every finished trial to one process death. Each completed
// ExperimentResult is one durably-flushed "FJ" frame whose payload is
//     version u8 | trial_index u32 | seed u64
//     | ExperimentResult fields (journal.cpp)
// A relaunched campaign replays the journal, skips the finished trials,
// and — because every trial is a pure function of its config — produces
// results bit-identical to an uninterrupted run (doubles travel as raw
// IEEE-754 bit patterns). append() fflushes and fsyncs before
// returning, so after a SIGKILL at any instant the file is a clean
// record prefix plus at most one torn tail, which load() detects via
// the frame length/CRC and drops (the interrupted trial simply
// re-runs). Nothing in the file is ever rewritten in place.
//
// Campaign journal (CampaignJournal). What --journal means, for the
// in-process supervisor and the coordinator loop alike: results land in
// one side shard as they arrive, and the main journal is only ever
// extended in trial-index order when the campaign ends. Its bytes
// therefore depend on which trials completed, never on --threads,
// --workers or --hosts.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runner/experiment.hpp"
#include "runner/supervisor.hpp"

namespace fourbit::runner {

// ---- frames -------------------------------------------------------------

enum class FrameStatus : std::uint8_t {
  kOk,        // a whole frame whose CRC checks
  kNeedMore,  // the header or the rest of the frame has not arrived
  kBad,       // the length exceeds the cap, or the CRC does not match
};

struct FrameView {
  FrameStatus status = FrameStatus::kNeedMore;
  /// Set whenever the header is complete, whatever the status.
  std::uint16_t magic = 0;
  /// kOk only: the payload and the bytes the whole frame occupies.
  std::span<const std::uint8_t> payload;
  std::size_t size = 0;
};

/// The whole file at `path`; empty when it cannot be opened.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

/// One complete frame: header, `payload`, CRC.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::uint16_t magic, std::span<const std::uint8_t> payload);

/// Parses the frame at the front of `bytes`. A length field above
/// `max_payload` is corruption, not a giant record, so it is kBad at
/// once instead of waiting for bytes that will never come.
[[nodiscard]] FrameView read_frame(std::span<const std::uint8_t> bytes,
                                   std::size_t max_payload);

// ---- trial journal ------------------------------------------------------

/// One replayed record.
struct JournalEntry {
  std::uint32_t trial_index = 0;
  std::uint64_t seed = 0;
  ExperimentResult result;
};

/// Journal frame magic ("FJ"). The transport layer multiplexes journal
/// frames over the host/coordinator socket and dispatches on this.
inline constexpr std::uint16_t kJournalMagic = 0x464A;

/// Cap on one journal frame's payload. A record carries per-node
/// vectors (~12 bytes/node), so this allows topologies far beyond any
/// bench; a longer length field is corruption.
inline constexpr std::size_t kMaxJournalPayloadBytes = 8 << 20;

/// One complete journal frame for `entry` — the exact bytes append()
/// writes. The dispatch transport ships results over a socket in this
/// same self-describing framing.
[[nodiscard]] std::vector<std::uint8_t> encode_journal_record(
    const JournalEntry& entry);

/// Decodes one journal frame payload (the bytes between the length
/// field and the CRC). Returns nullopt on version or layout mismatch.
[[nodiscard]] std::optional<JournalEntry> decode_journal_record_payload(
    std::span<const std::uint8_t> payload);

class TrialJournal {
 public:
  struct LoadResult {
    std::vector<JournalEntry> entries;
    /// A trailing partial or corrupt record was found and dropped — the
    /// expected shape after a mid-write kill. Replay of the clean
    /// prefix proceeds normally.
    bool torn = false;
    /// Bytes of the clean record prefix: where a torn tail begins.
    std::size_t clean_bytes = 0;
  };

  /// Replays every intact record. A missing file is an empty journal.
  [[nodiscard]] static LoadResult load(const std::string& path);

  /// Opens `path` for appending, creating it if needed. Any torn tail
  /// left by a mid-write kill is truncated first, so records appended
  /// now stay reachable by load() (framing would otherwise be lost at
  /// the first garbage byte). Throws std::runtime_error when the file
  /// cannot be opened or the tail cannot be truncated.
  [[nodiscard]] static TrialJournal open_append(const std::string& path);

  /// Appends one completed trial and makes it durable (fflush + fsync)
  /// before returning.
  void append(std::uint32_t trial_index, std::uint64_t seed,
              const ExperimentResult& result);

  /// Appends already-encoded journal frames as one durable write. A
  /// write or fsync failure (ENOSPC, EIO, a yanked volume) must not kill
  /// a multi-hour campaign over a lost safety net: the journal latches
  /// into a disabled state instead — one stderr warning, the
  /// process-wide write_failures() counter bumps (exported as
  /// runner/journal_write_failures), and every later append on this
  /// journal is a no-op. The campaign finishes unjournaled; only resume
  /// durability is lost.
  void append_frames(std::span<const std::uint8_t> frames);

  /// False once a write failure has latched the journal disabled.
  [[nodiscard]] bool healthy() const { return file_ != nullptr; }

  /// Underlying file descriptor, -1 when disabled. Diagnostic/test
  /// hook (tests inject write failures by closing it).
  [[nodiscard]] int fd() const;

  /// Process-wide count of journal write failures (monotonic).
  [[nodiscard]] static std::uint64_t write_failures();

  TrialJournal(TrialJournal&& other) noexcept : file_(other.file_) {
    other.file_ = nullptr;
  }
  TrialJournal& operator=(TrialJournal&& other) noexcept;
  ~TrialJournal();

  TrialJournal(const TrialJournal&) = delete;
  TrialJournal& operator=(const TrialJournal&) = delete;

 private:
  explicit TrialJournal(std::FILE* file) : file_(file) {}

  std::FILE* file_ = nullptr;
};

// ---- campaign journal ---------------------------------------------------

/// The on-disk policy behind --journal. Constructed with an empty stem
/// it does nothing but the write-failure accounting.
///
///   * Open (constructor): replays the main journal at `stem`, then the
///     campaign's shard (shard_path) that a killed run left behind, into
///     `report` — results, completed, replayed, journal_torn. A record
///     whose seed disagrees with the trial list belongs to another
///     campaign and is skipped.
///   * record(): appends one accepted result to the shard, durably,
///     before returning. Safe from any thread.
///   * finish(): appends to the main journal, in index order, every
///     completed result it lacks, then deletes the shard and any flight
///     snapshots ("<stem>.w<digit>..."). Sets journal_write_failures.
///
/// A SIGKILL at any point loses nothing record() returned from: the
/// next open replays the shard, and its finish writes the same bytes an
/// uninterrupted run would have.
class CampaignJournal {
 public:
  CampaignJournal(std::string stem,
                  const std::vector<ExperimentConfig>& trials,
                  CampaignReport& report);

  void record(std::size_t index, const ExperimentResult& result);
  void finish(CampaignReport& report);

  /// "<stem>.w1000000.journal": the one shard next to the main journal.
  [[nodiscard]] static std::string shard_path(const std::string& stem);

 private:
  std::string stem_;
  const std::vector<ExperimentConfig>& trials_;
  std::vector<std::uint8_t> in_main_;  // trial i's record is in the main file
  std::uint64_t failures_before_ = 0;
  std::mutex mutex_;
  std::optional<TrialJournal> shard_;
};

}  // namespace fourbit::runner
