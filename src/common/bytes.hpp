#pragma once
// The one little-endian byte codec behind every binary format easched
// reads or writes: serve message payloads (serve/protocol.cpp), the
// solve-store's record payloads and log header (store/serialize.cpp,
// store/log.cpp), the frame header (common/frame.hpp) and the instance
// bytes and digest (api/digest.cpp).
//
// Fields are fixed-width, explicit little-endian and unpadded, doubles as
// IEEE-754 bit patterns, so a value encodes to the same bytes on every
// host. Strings and double vectors carry a count prefix whose width each
// format fixes for good — the wire uses u32, the store u64 — and callers
// name it at every call site: `w.str<std::uint32_t>(s)`.
//
// ByteWriter appends to a std::string. ByteReader walks a byte view with
// bounds checks: a read past the end returns zero, latches ok() false and
// keeps every later read at zero, so a decoder reads a whole struct
// unconditionally and checks ok() once — a corrupt payload becomes a clean
// decode error, never UB, never an exception. Header-only so the serve
// hot path inlines every field.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace easched::common {

/// The `n` (<= 8) bytes at `p` as a little-endian unsigned integer.
inline std::uint64_t load_le(const char* p, std::size_t n) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v), 8); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    put_le(bits, 8);
  }

  /// Bytes verbatim, no prefix.
  void raw(std::string_view s) { out_.append(s.data(), s.size()); }

  /// Count-prefixed byte string; `Len` is the frozen prefix width.
  template <typename Len>
  void str(std::string_view s) {
    put_le(static_cast<Len>(s.size()), sizeof(Len));
    raw(s);
  }

  /// Count-prefixed vector of doubles.
  template <typename Len>
  void doubles(const std::vector<double>& v) {
    put_le(static_cast<Len>(v.size()), sizeof(Len));
    for (double d : v) f64(d);
  }

 private:
  void put_le(std::uint64_t v, std::size_t n) {
    char buf[8];
    for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out_.append(buf, n);
  }

  std::string& out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ok() const noexcept { return ok_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

  std::uint8_t u8() { return static_cast<std::uint8_t>(get_le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t u64() { return get_le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(get_le(8)); }
  double f64() {
    const std::uint64_t bits = get_le(8);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  template <typename Len>
  std::string str() {
    const std::uint64_t n = get_le(sizeof(Len));
    return std::string(raw(n));
  }

  template <typename Len>
  std::vector<double> doubles() {
    const std::uint64_t n = get_le(sizeof(Len));
    if (!fits(n, 8)) return {};
    std::vector<double> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
    return v;
  }

  /// Whether `count` items of at least `item_bytes` each can still follow;
  /// latches ok() false when not. Call it on every decoded count before
  /// sizing a container by it: a corrupt count must fail here, not turn
  /// into a huge allocation first.
  bool fits(std::uint64_t count, std::size_t item_bytes) {
    if (ok_ && count > (data_.size() - pos_) / item_bytes) ok_ = false;
    return ok_;
  }

 private:
  /// The next `n` bytes as a view into the input (empty once short).
  std::string_view raw(std::uint64_t n) {
    if (!fits(n, 1)) return {};
    const std::string_view v = data_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::uint64_t get_le(std::size_t n) {
    if (!fits(n, 1)) return 0;
    const std::uint64_t v = load_le(data_.data() + pos_, n);
    pos_ += n;
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace easched::common
