// CRC-16/CCITT (the 802.15.4 frame check sequence).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace fourbit {

namespace detail {

/// crc16 of every single byte: entry `b` is the bit-serial register
/// after shifting `b << 8` through eight steps of polynomial 0x1021.
inline constexpr std::array<std::uint16_t, 256> kCrc16Table = [] {
  std::array<std::uint16_t, 256> table{};
  for (unsigned b = 0; b < 256; ++b) {
    auto crc = static_cast<std::uint16_t>(b << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000)
                ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                : static_cast<std::uint16_t>(crc << 1);
    }
    table[b] = crc;
  }
  return table;
}();

}  // namespace detail

/// CRC-16 with polynomial 0x1021, init 0x0000 (CRC-16/XMODEM — the
/// 802.15.4 FCS definition). Byte-at-a-time through a 256-entry table;
/// the result equals the bit-serial definition.
[[nodiscard]] constexpr std::uint16_t crc16(
    std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0x0000;
  for (const std::uint8_t byte : data) {
    crc = static_cast<std::uint16_t>(
        (crc << 8) ^ detail::kCrc16Table[(crc >> 8) ^ byte]);
  }
  return crc;
}

/// True iff `frame` ends in a big-endian crc16 of everything before it
/// (an 802.15.4 MPDU whose FCS checks). Frames shorter than the FCS fail.
[[nodiscard]] constexpr bool fcs_valid(std::span<const std::uint8_t> frame) {
  if (frame.size() < 2) return false;
  const auto fcs = static_cast<std::uint16_t>(
      frame[frame.size() - 2] << 8 | frame[frame.size() - 1]);
  return crc16(frame.first(frame.size() - 2)) == fcs;
}

}  // namespace fourbit
