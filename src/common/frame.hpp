#pragma once
// The one CRC frame shared by the serve wire protocol and the solve-store
// log — the single definition of their common layout:
//
//   [type u8][payload_len u64 LE][payload bytes][crc32 u32 LE]
//
// The CRC (IEEE 802.3, reflected) covers type + length + payload, so a
// frame is self-delimiting and self-checking: a reader knows where a
// frame ends before it checks it, and a flipped bit anywhere is caught.
//
// decode_frame is stateless and does byte work only. What a failure means
// is the caller's policy: the serve FrameDecoder consumes a bad-CRC frame
// and keeps reading the stream, the store log's scan stops at the first
// frame that is not intact. Each caller also sets its own payload cap.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace easched::common {

/// Encodes `payload` as one complete frame of `type`.
std::string encode_frame(std::uint8_t type, std::string_view payload);

enum class FrameResult {
  kNeedMore,   ///< no complete frame in the bytes yet
  kFrame,      ///< an intact frame
  kBadCrc,     ///< a complete frame whose checksum fails
  kOversized,  ///< declared payload exceeds the caller's cap
};

struct FrameView {
  FrameResult result = FrameResult::kNeedMore;
  std::uint8_t type = 0;
  std::string_view payload;  ///< into the input; set for kFrame
  std::size_t size = 0;      ///< whole frame bytes; set for kFrame and kBadCrc
};

/// Decodes the frame at the start of the `avail` bytes at `data`. A
/// declared payload above `max_payload` is kOversized as soon as the
/// header is in, without waiting for (or trusting) the payload.
FrameView decode_frame(const char* data, std::size_t avail, std::uint64_t max_payload);

}  // namespace easched::common
