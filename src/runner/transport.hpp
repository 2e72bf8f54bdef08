// The session transport of the coordinator loop (dispatch.hpp): the
// framing every peer — a TCP host agent or a local worker on a
// socketpair — speaks to the coordinator, and the fd plumbing under it.
//
// A session multiplexes three CRC-framed record kinds: status frames
// ("FW", worker.hpp) for liveness and trial lifecycle, journal frames
// ("FJ", journal.hpp) for results, and control frames ("FT") for lease
// grants, completion and live status. Every frame is
// magic u16 | length u32 | payload | crc16(payload), so one incremental
// parser (TransportParser) demultiplexes the stream by magic, and any
// framing violation latches corrupt(), which the coordinator treats as
// the peer's death: the session ends, its lease returns to the pool,
// and a worker behind it gets hard-crash treatment.
//
// Control frames ("FT") carry:
//     payload = version u8 | kind u8 | lease u32 | text (u32 + bytes)
//   coordinator -> peer:  kLeaseGrant (text = index spans, e.g.
//                         "0-4,9"), kShutdown (campaign settled)
//   peer -> coordinator:  kLeaseComplete (every trial in the lease is
//                         settled and its results have been streamed),
//                         kStatus (the peer's live view)
//
// The fd helpers retry EINTR on poll/accept/connect, write_all_fd
// finishes short writes and waits out EAGAIN on nonblocking fds, and
// both ends ignore SIGPIPE (a peer death must surface as a return
// value, never a signal).
#pragma once

#include <poll.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runner/journal.hpp"
#include "runner/worker.hpp"

namespace fourbit::runner {

// ---- EINTR-safe fd plumbing ------------------------------------------

/// Ignores SIGPIPE process-wide; call once on each end before any
/// socket writes. Idempotent.
void ignore_sigpipe();

/// poll() retrying EINTR. Returns poll()'s result (>= 0, or -1 for a
/// real error only).
int poll_retry(pollfd* fds, std::size_t count, int timeout_ms);

/// accept() retrying EINTR; the accepted fd gets FD_CLOEXEC. Returns
/// -1 on real errors.
int accept_retry(int listen_fd);

/// Writes all n bytes: retries EINTR, finishes partial writes, and
/// polls out EAGAIN/EWOULDBLOCK on nonblocking fds. False when the
/// peer is gone (EPIPE/ECONNRESET/...) — never raises SIGPIPE.
bool write_all_fd(int fd, const std::uint8_t* data, std::size_t n);

// ---- sockets ----------------------------------------------------------

struct ListenSocket {
  int fd = -1;
  std::uint16_t port = 0;  // actual bound port (resolves port 0)
};

/// IPv4 listener on `port` (0 = ephemeral) with SO_REUSEADDR and
/// FD_CLOEXEC. nullopt when the port cannot be bound.
[[nodiscard]] std::optional<ListenSocket> listen_on(std::uint16_t port);

/// Blocking-connect with a deadline: resolves host:port (names or
/// numeric), connects nonblocking, waits up to timeout_ms. Returns a
/// connected fd (nonblocking, FD_CLOEXEC, TCP_NODELAY) or -1.
[[nodiscard]] int connect_to_host(const std::string& host,
                                  std::uint16_t port,
                                  std::uint64_t timeout_ms);

// ---- control frames ---------------------------------------------------

inline constexpr std::uint16_t kControlMagic = 0x4654;  // "FT"

enum class ControlKind : std::uint8_t {
  kLeaseGrant = 0,     // coordinator -> host: text = trial index spans
  kLeaseComplete = 1,  // host -> coordinator: lease fully settled
  kShutdown = 2,       // coordinator -> host: campaign over, hang up
  /// host -> coordinator: text = an encoded fourbit.status/1 payload
  /// (runner/status.hpp codec) with the host's lease-local merged
  /// metrics. Strictly off-band — never touches trial accounting.
  kStatus = 3,
};

struct ControlMessage {
  ControlKind kind = ControlKind::kLeaseGrant;
  std::uint32_t lease = 0;  // lease id; grants and completions match on it
  std::string text;         // kLeaseGrant: format_index_spans payload
};

/// One complete control frame (header + payload + CRC).
[[nodiscard]] std::vector<std::uint8_t> encode_control_message(
    const ControlMessage& message);

/// Decodes a control frame payload. nullopt on version/layout junk.
[[nodiscard]] std::optional<ControlMessage> decode_control_message_payload(
    std::span<const std::uint8_t> payload);

// ---- the demultiplexing parser ---------------------------------------

/// One frame off the socket: exactly one of the three alternatives is
/// meaningful, selected by `type`.
struct TransportFrame {
  enum class Type { kStatus, kResult, kControl };
  Type type = Type::kStatus;
  WorkerRecord record;     // kStatus  ("FW")
  JournalEntry entry;      // kResult  ("FJ")
  ControlMessage control;  // kControl ("FT")
};

/// Incremental parser over the mixed-magic session stream: feed bytes
/// as they arrive (any chunking), drain complete frames with next()
/// (nullopt while a frame is still partial), and any framing/CRC/decode
/// violation latches corrupt() — the peer is untrustworthy from that
/// point.
class TransportParser {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  [[nodiscard]] std::optional<TransportFrame> next();
  [[nodiscard]] bool corrupt() const { return corrupt_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
  bool corrupt_ = false;
};

}  // namespace fourbit::runner
