#include "runner/transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "common/byte_io.hpp"
#include "common/crc16.hpp"

namespace fourbit::runner {
namespace {

constexpr std::uint8_t kControlVersion = 1;
constexpr std::size_t kFrameHeaderBytes = 6;  // magic u16 + length u32
constexpr std::size_t kCrcBytes = 2;
// Per-magic sanity caps: status and control
// frames are small, but a journal frame carries per-node vectors and
// scales with topology size (~12 bytes/node), so it gets more rope. A
// length past the cap is corruption, not a giant record.
constexpr std::size_t kMaxStatusFrameBytes = 1 << 20;
constexpr std::size_t kMaxControlFrameBytes = 1 << 20;
constexpr std::size_t kMaxResultFrameBytes = 8 << 20;
// write_all_fd backstop: a peer that accepts nothing for this long is
// treated as gone (a dead coordinator must not wedge a host forever).
constexpr int kWriteStallTimeoutMs = 30'000;

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

int poll_retry(pollfd* fds, std::size_t count, int timeout_ms) {
  int polled;
  do {
    polled = ::poll(fds, static_cast<nfds_t>(count), timeout_ms);
  } while (polled < 0 && errno == EINTR);
  return polled;
}

int accept_retry(int listen_fd) {
  int fd;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd >= 0) set_cloexec(fd);
  return fd;
}

bool write_all_fd(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL belt on top of the ignore_sigpipe suspenders; fall
    // back to write() when the fd is not a socket (tests use pipes).
    ssize_t wrote = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (wrote < 0 && errno == ENOTSOCK) {
      wrote = ::write(fd, data + off, n - off);
    }
    if (wrote > 0) {
      off += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      const int polled = poll_retry(&pfd, 1, kWriteStallTimeoutMs);
      if (polled <= 0) return false;  // stalled or broken: peer is gone
      continue;
    }
    return false;  // EPIPE/ECONNRESET/EBADF/...: peer is gone
  }
  return true;
}

std::optional<ListenSocket> listen_on(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  set_cloexec(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 8) < 0) {
    ::close(fd);
    return std::nullopt;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    ::close(fd);
    return std::nullopt;
  }
  return ListenSocket{fd, ntohs(bound.sin_port)};
}

int connect_to_host(const std::string& host, std::uint16_t port,
                    std::uint64_t timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &results) != 0 ||
      results == nullptr) {
    return -1;
  }

  int fd = -1;
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    set_cloexec(fd);
    ::fcntl(fd, F_SETFL, O_NONBLOCK);

    int rc;
    do {
      rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int polled = poll_retry(&pfd, 1, static_cast<int>(timeout_ms));
      if (polled > 0) {
        int err = 0;
        socklen_t err_len = sizeof err;
        rc = (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) == 0 &&
              err == 0)
                 ? 0
                 : -1;
      } else {
        rc = -1;  // timeout or poll error: this address is unreachable
      }
    }
    if (rc == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd >= 0) set_nodelay(fd);
  return fd;
}

std::vector<std::uint8_t> encode_control_message(
    const ControlMessage& message) {
  std::vector<std::uint8_t> payload;
  ByteWriter w{payload};
  w.u8(kControlVersion);
  w.u8(static_cast<std::uint8_t>(message.kind));
  w.u32(message.lease);
  w.u32(static_cast<std::uint32_t>(message.text.size()));
  for (const char c : message.text) w.u8(static_cast<std::uint8_t>(c));

  std::vector<std::uint8_t> frame;
  ByteWriter framer{frame};
  framer.u16(kControlMagic);
  framer.u32(static_cast<std::uint32_t>(payload.size()));
  framer.bytes(payload);
  framer.u16(crc16(payload));
  return frame;
}

std::optional<ControlMessage> decode_control_message_payload(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  if (r.u8() != kControlVersion) return std::nullopt;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(ControlKind::kStatus)) {
    return std::nullopt;
  }
  ControlMessage message;
  message.kind = static_cast<ControlKind>(kind);
  message.lease = r.u32();
  const std::uint32_t text_len = r.u32();
  if (!r.ok() || text_len > kMaxControlFrameBytes ||
      r.remaining() < text_len) {
    return std::nullopt;
  }
  message.text.reserve(text_len);
  for (std::uint32_t i = 0; i < text_len; ++i) {
    message.text.push_back(static_cast<char>(r.u8()));
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return message;
}

void TransportParser::feed(const std::uint8_t* data, std::size_t n) {
  if (corrupt_) return;
  buffer_.insert(buffer_.end(), data, data + n);
}

std::optional<TransportFrame> TransportParser::next() {
  if (corrupt_) return std::nullopt;
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  const std::size_t avail = buffer_.size() - pos_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  const std::span<const std::uint8_t> rest{buffer_.data() + pos_, avail};
  ByteReader header{rest.first(kFrameHeaderBytes)};
  const std::uint16_t magic = header.u16();
  std::size_t max_frame = 0;
  switch (magic) {
    case kWorkerPipeMagic: max_frame = kMaxStatusFrameBytes; break;
    case kJournalMagic: max_frame = kMaxResultFrameBytes; break;
    case kControlMagic: max_frame = kMaxControlFrameBytes; break;
    default:
      corrupt_ = true;
      return std::nullopt;
  }
  const std::uint32_t length = header.u32();
  if (length > max_frame) {
    corrupt_ = true;
    return std::nullopt;
  }
  if (avail < kFrameHeaderBytes + length + kCrcBytes) return std::nullopt;
  const auto payload = rest.subspan(kFrameHeaderBytes, length);
  ByteReader crc_reader{rest.subspan(kFrameHeaderBytes + length, kCrcBytes)};
  if (crc_reader.u16() != crc16(payload)) {
    corrupt_ = true;
    return std::nullopt;
  }

  TransportFrame frame;
  bool decoded = false;
  switch (magic) {
    case kWorkerPipeMagic: {
      frame.type = TransportFrame::Type::kStatus;
      auto rec = decode_worker_record_payload(payload);
      if (rec) {
        frame.record = std::move(*rec);
        decoded = true;
      }
      break;
    }
    case kJournalMagic: {
      frame.type = TransportFrame::Type::kResult;
      auto entry = decode_journal_record_payload(payload);
      if (entry) {
        frame.entry = std::move(*entry);
        decoded = true;
      }
      break;
    }
    case kControlMagic: {
      frame.type = TransportFrame::Type::kControl;
      auto control = decode_control_message_payload(payload);
      if (control) {
        frame.control = std::move(*control);
        decoded = true;
      }
      break;
    }
    default: break;  // unreachable: magic validated above
  }
  if (!decoded) {
    corrupt_ = true;
    return std::nullopt;
  }
  pos_ += kFrameHeaderBytes + length + kCrcBytes;
  // Compact once the consumed prefix dominates, so a long session does
  // not grow the buffer without bound.
  if (pos_ > (1 << 16) && pos_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return frame;
}

}  // namespace fourbit::runner
