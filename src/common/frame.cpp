#include "common/frame.hpp"

#include <array>

#include "common/bytes.hpp"

namespace easched::common {
namespace {

constexpr std::size_t kHeaderBytes = 1 + 8;  // type + payload length
constexpr std::size_t kCrcBytes = 4;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `n` bytes.
std::uint32_t crc32(const void* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~0u;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  return ~crc;
}

}  // namespace

std::string encode_frame(std::uint8_t type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size() + kCrcBytes);
  ByteWriter w(out);
  w.u8(type);
  w.u64(payload.size());
  w.raw(payload);
  w.u32(crc32(out.data(), out.size()));
  return out;
}

FrameView decode_frame(const char* data, std::size_t avail, std::uint64_t max_payload) {
  FrameView frame;
  if (avail < kHeaderBytes) return frame;
  const std::uint64_t len = load_le(data + 1, 8);
  if (len > max_payload) {
    frame.result = FrameResult::kOversized;
    return frame;
  }
  const std::size_t covered = kHeaderBytes + static_cast<std::size_t>(len);
  if (avail < covered + kCrcBytes) return frame;
  frame.size = covered + kCrcBytes;
  if (crc32(data, covered) != load_le(data + covered, kCrcBytes)) {
    frame.result = FrameResult::kBadCrc;
    return frame;
  }
  frame.result = FrameResult::kFrame;
  frame.type = static_cast<std::uint8_t>(data[0]);
  frame.payload = std::string_view(data + kHeaderBytes, static_cast<std::size_t>(len));
  return frame;
}

}  // namespace easched::common
