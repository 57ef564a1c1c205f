#include "store/log.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"
#include "common/frame.hpp"

namespace easched::store {
namespace {

// Header: 8-byte magic + u32 format version + u32 flags, 16 bytes total.
constexpr char kMagic[8] = {'E', 'A', 'S', 'S', 'T', 'O', 'R', 'E'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint64_t kHeaderBytes = 16;
// Payloads beyond this are treated as corruption, not data: the largest
// legitimate record (an interned instance blob) is linear in the task
// count, nowhere near 1 GiB.
constexpr std::uint64_t kMaxPayload = 1ull << 30;

std::string header_bytes() {
  std::string out(kMagic, sizeof(kMagic));
  common::ByteWriter w(out);
  w.u32(kFormatVersion);
  w.u32(0);  // flags, reserved
  return out;
}

common::Status errno_status(const std::string& what, const std::string& path) {
  return common::Status::internal(what + " '" + path + "': " + std::strerror(errno));
}

/// Reads exactly [offset, offset+n) into `out` (resized); short reads past
/// EOF shrink `out` to what was available.
common::Status read_range(int fd, std::uint64_t offset, std::uint64_t n,
                          std::string& out, const std::string& path) {
  out.resize(static_cast<std::size_t>(n));
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, &out[got], static_cast<std::size_t>(n - got),
                              static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return errno_status("cannot read store log", path);
    }
    if (r == 0) break;  // EOF: the writer appended less than we hoped
    got += static_cast<std::size_t>(r);
  }
  out.resize(got);
  return common::Status::ok();
}

common::Status write_all(int fd, std::uint64_t offset, const std::string& bytes,
                         const std::string& path) {
  std::size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t w = ::pwrite(fd, bytes.data() + put, bytes.size() - put,
                               static_cast<off_t>(offset + put));
    if (w < 0) {
      if (errno == EINTR) continue;
      return errno_status("cannot write store log", path);
    }
    put += static_cast<std::size_t>(w);
  }
  return common::Status::ok();
}

/// Scans the frames inside `buf`, invoking `fn` per intact record;
/// returns the offset of the first byte that is not part of an intact
/// record (== buf.size() when clean).
std::size_t scan_frames(const std::string& buf,
                        const std::function<void(RecordType, const std::string&)>* fn) {
  std::size_t at = 0;
  std::string payload;
  while (true) {
    const common::FrameView frame =
        common::decode_frame(buf.data() + at, buf.size() - at, kMaxPayload);
    // Stop at the first record that is torn (not fully on disk), corrupt,
    // of insane length or of a type no v1 writer emits.
    if (frame.result != common::FrameResult::kFrame ||
        (frame.type != static_cast<std::uint8_t>(RecordType::kBlob) &&
         frame.type != static_cast<std::uint8_t>(RecordType::kEntry))) {
      break;
    }
    if (fn != nullptr) {
      payload.assign(frame.payload);
      (*fn)(static_cast<RecordType>(frame.type), payload);
    }
    at += frame.size;
  }
  return at;
}

}  // namespace

common::Result<RecordLog> RecordLog::open(const std::string& path, bool read_only) {
  RecordLog log;
  log.path_ = path;
  log.read_only_ = read_only;
  log.fd_ = read_only ? ::open(path.c_str(), O_RDONLY)
                      : ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (log.fd_ < 0) {
    if (read_only && errno == ENOENT) {
      return common::Status::not_found("store log '" + path + "' does not exist");
    }
    return errno_status("cannot open store log", path);
  }
  if (!read_only && ::flock(log.fd_, LOCK_EX | LOCK_NB) != 0) {
    return common::Status::unsupported(
        "store log '" + path +
        "' is held by another writer (single-writer/multi-reader)");
  }
  common::Status header = log.validate_or_write_header();
  if (!header.is_ok()) return header;

  struct stat st {};
  if (::fstat(log.fd_, &st) != 0) return errno_status("cannot stat store log", path);
  log.end_offset_ = static_cast<std::uint64_t>(st.st_size);
  log.offset_ = kHeaderBytes;

  if (!read_only && log.end_offset_ > kHeaderBytes) {
    // Re-enter the all-records-valid state: find the end of the intact
    // prefix and drop everything after it before appending anything new.
    std::string buf;
    common::Status read =
        read_range(log.fd_, kHeaderBytes, log.end_offset_ - kHeaderBytes, buf, path);
    if (!read.is_ok()) return read;
    const std::uint64_t good = kHeaderBytes + scan_frames(buf, nullptr);
    if (good < log.end_offset_) {
      if (::ftruncate(log.fd_, static_cast<off_t>(good)) != 0) {
        return errno_status("cannot truncate torn store log", path);
      }
      log.truncated_bytes_ = log.end_offset_ - good;
      log.end_offset_ = good;
    }
  }
  return log;
}

common::Status RecordLog::validate_or_write_header() {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return errno_status("cannot stat store log", path_);
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < kHeaderBytes) {
    // Empty (fresh create) or torn mid-header-write: no record can exist
    // yet, so a writer may safely start the file over.
    if (read_only_) {
      return common::Status::invalid("store log '" + path_ +
                                     "' is shorter than its header");
    }
    if (::ftruncate(fd_, 0) != 0) return errno_status("cannot reset store log", path_);
    return write_all(fd_, 0, header_bytes(), path_);
  }
  std::string have;
  common::Status read = read_range(fd_, 0, kHeaderBytes, have, path_);
  if (!read.is_ok()) return read;
  if (have.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return common::Status::invalid("'" + path_ + "' is not a solve-store log");
  }
  const auto version =
      static_cast<std::uint32_t>(common::load_le(have.data() + sizeof(kMagic), 4));
  if (version != kFormatVersion) {
    return common::Status::unsupported("store log '" + path_ + "' has format version " +
                                       std::to_string(version) + ", expected " +
                                       std::to_string(kFormatVersion));
  }
  return common::Status::ok();
}

RecordLog::RecordLog(RecordLog&& other) noexcept { *this = std::move(other); }

RecordLog& RecordLog::operator=(RecordLog&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    read_only_ = other.read_only_;
    offset_ = other.offset_;
    end_offset_ = other.end_offset_;
    truncated_bytes_ = other.truncated_bytes_;
  }
  return *this;
}

RecordLog::~RecordLog() {
  if (fd_ >= 0) ::close(fd_);  // also releases the writer flock
}

common::Status RecordLog::append(RecordType type, const std::string& payload) {
  if (fd_ < 0) return common::Status::internal("append on a moved-from RecordLog");
  if (read_only_) {
    return common::Status::unsupported("store log '" + path_ + "' is open read-only");
  }
  const std::string frame = common::encode_frame(static_cast<std::uint8_t>(type), payload);
  common::Status written = write_all(fd_, end_offset_, frame, path_);
  if (!written.is_ok()) return written;
  end_offset_ += frame.size();
  // A writer is its own source of truth for what it appended; skip
  // re-delivering it through poll().
  if (offset_ == end_offset_ - frame.size()) offset_ = end_offset_;
  return common::Status::ok();
}

common::Result<PollReport> RecordLog::poll(
    const std::function<void(RecordType, const std::string&)>& fn) {
  if (fd_ < 0) return common::Status::internal("poll on a moved-from RecordLog");
  PollReport report;

  // Compaction replaces the file under the path; a reader still holding
  // the old inode would otherwise be frozen in time. Detect and reopen.
  struct stat by_path {};
  struct stat by_fd {};
  if (::stat(path_.c_str(), &by_path) == 0 && ::fstat(fd_, &by_fd) == 0 &&
      (by_path.st_ino != by_fd.st_ino || by_path.st_dev != by_fd.st_dev)) {
    common::Result<RecordLog> reopened = RecordLog::open(path_, read_only_);
    if (!reopened.is_ok()) return reopened.status();
    *this = std::move(reopened).take();
    report.replaced = true;
  }

  struct stat st {};
  if (::fstat(fd_, &st) != 0) return errno_status("cannot stat store log", path_);
  end_offset_ = static_cast<std::uint64_t>(st.st_size);
  if (end_offset_ <= offset_) return report;

  std::string buf;
  common::Status read = read_range(fd_, offset_, end_offset_ - offset_, buf, path_);
  if (!read.is_ok()) return read;
  std::size_t delivered_records = 0;
  const std::function<void(RecordType, const std::string&)> counting =
      [&](RecordType type, const std::string& payload) {
        ++delivered_records;
        if (fn) fn(type, payload);
      };
  const std::size_t good = scan_frames(buf, &counting);
  offset_ += good;
  report.records = delivered_records;
  report.torn_bytes = buf.size() - good;
  return report;
}

common::Status RecordLog::sync() {
  if (fd_ < 0) return common::Status::internal("sync on a moved-from RecordLog");
  if (read_only_) return common::Status::ok();
  if (::fsync(fd_) != 0) return errno_status("cannot fsync store log", path_);
  return common::Status::ok();
}

}  // namespace easched::store
