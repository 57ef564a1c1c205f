// Deterministic mutation test of the shared decoders (common/bytes.hpp,
// common/frame.hpp) and every decoder built on them. Valid frames, record
// payloads and a whole store log are mutated — bit flips, truncation,
// extension, overwritten length fields — and fed through the serve
// FrameDecoder, every message decode, decode_blob / decode_entry and a
// RecordLog scan. Every outcome must be a value or a non-OK Status: no
// crash, no UB (run it under scripts/check.sh --sanitize), no huge
// allocation from a corrupt count. Fixed seed, fixed iteration budget.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve/protocol.hpp"
#include "store/log.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace easched {
namespace {

constexpr std::uint64_t kSeed = 0x5eedf00dULL;
constexpr int kPayloadIterations = 3000;
constexpr int kLogIterations = 150;

// ---- seeds: one valid instance of everything ----------------------------

serve::ProblemSpec seed_problem() {
  serve::ProblemSpec spec;
  spec.dag_text = "dag 2\ntask 0 1\ntask 1 2\nedge 0 1\n";
  spec.speed_kind = model::SpeedModelKind::kVddHopping;
  spec.levels = {0.5, 1.0};
  spec.deadline = 6.0;
  return spec;
}

/// (type, payload) of one valid message of every MsgType.
std::vector<std::pair<serve::MsgType, std::string>> seed_messages() {
  using serve::MsgType;
  serve::Hello hello;
  hello.tenant = "acme";
  serve::HelloAck ack;
  ack.status = common::Status::unsupported("v2");
  serve::SolveRequest solve;
  solve.request_id = 1;
  solve.problem = seed_problem();
  solve.solver = "vdd-lp";
  serve::SweepRequest sweep;
  sweep.request_id = 2;
  sweep.problem = seed_problem();
  sweep.lo = 4.0;
  sweep.hi = 8.0;
  sweep.prev_probes = {4.0, 6.0, 8.0};
  serve::StatRequest stat;
  stat.request_id = 3;
  serve::SolveResponse solved;
  solved.request_id = 1;
  solved.energy = 2.0;
  solved.solver = "vdd-lp";
  serve::SweepResponse swept;
  swept.request_id = 2;
  swept.points = {{4.0, 2.0, 4.0, "vdd-lp", true}, {8.0, 1.0, 8.0, "vdd-lp", true}};
  swept.probes = {4.0, 8.0};
  serve::StatResponse stats;
  stats.request_id = 3;
  stats.has_store = true;
  serve::ErrorResponse error;
  error.status = common::Status::invalid("bad");
  serve::MetricsRequest metrics;
  metrics.request_id = 4;
  serve::MetricsResponse scraped;
  scraped.request_id = 4;
  scraped.body = "up 1\n";
  return {{MsgType::kHello, hello.encode()},
          {MsgType::kHelloAck, ack.encode()},
          {MsgType::kSolveRequest, solve.encode()},
          {MsgType::kSweepRequest, sweep.encode()},
          {MsgType::kStatRequest, stat.encode()},
          {MsgType::kSolveResponse, solved.encode()},
          {MsgType::kSweepResponse, swept.encode()},
          {MsgType::kStatResponse, stats.encode()},
          {MsgType::kError, error.encode()},
          {MsgType::kMetricsRequest, metrics.encode()},
          {MsgType::kMetricsResponse, scraped.encode()}};
}

store::PointKey seed_point(std::uint64_t deadline_bits) {
  store::PointKey point;
  point.deadline_bits = deadline_bits;
  point.approx_K = 10;
  point.polish = 1;
  return point;
}

store::SolveStore::StoredResult seed_ok_result() {
  api::SolveReport report;
  report.energy = 2.0;
  report.makespan = 4.0;
  report.solver = "vdd-lp";
  report.schedule = sched::Schedule(2);
  report.schedule.at(0) = sched::TaskDecision::re_exec(0.5, 1.0);
  report.schedule.at(1).executions = {sched::Execution{0.0, {{0.5, 2.0}, {1.0, 1.0}}}};
  return std::make_shared<const common::Result<api::SolveReport>>(std::move(report));
}

store::SolveStore::StoredResult seed_failed_result() {
  return std::make_shared<const common::Result<api::SolveReport>>(
      common::Status::infeasible("late"));
}

/// Record payloads: one blob, one OK entry with a VDD profile and a
/// re-execution, one failed entry.
std::vector<std::pair<store::RecordType, std::string>> seed_records() {
  using store::RecordType;
  const api::InstanceDigest digest{1, 2};
  return {
      {RecordType::kBlob, store::encode_blob(store::BlobRecord{1, digest, "instance"})},
      {RecordType::kEntry,
       store::encode_entry(store::EntryRecord{1, "vdd-lp", seed_point(4), seed_ok_result()})},
      {RecordType::kEntry,
       store::encode_entry(store::EntryRecord{1, "", seed_point(8), seed_failed_result()})}};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// ---- mutations -----------------------------------------------------------

/// Values a corrupt count or length field likes to take.
std::uint64_t interesting(common::Rng& rng, std::size_t size) {
  const std::uint64_t picks[] = {0,
                                 1,
                                 size - 1,
                                 size,
                                 size + 1,
                                 0x7f,
                                 0xffff,
                                 0x7fffffffULL,
                                 0xffffffffULL,
                                 (8ULL << 20) + 1,
                                 (1ULL << 30) + 1,
                                 0x7fffffffffffffffULL,
                                 ~0ULL,
                                 rng.next_u64()};
  return picks[rng.below(sizeof(picks) / sizeof(picks[0]))];
}

/// Overwrites `width` bytes at `at` with `v`, little-endian (clipped).
void overwrite(std::string& bytes, std::size_t at, int width, std::uint64_t v) {
  for (int i = 0; i < width && at + static_cast<std::size_t>(i) < bytes.size(); ++i) {
    bytes[at + static_cast<std::size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// One random mutation of `bytes`. `length_at` (when not npos) is the
/// offset of a frame's u64 length field, targeted by one of the cases.
std::string mutate(std::string bytes, common::Rng& rng,
                   std::size_t length_at = std::string::npos) {
  switch (rng.below(5)) {
    case 0: {  // flip 1 to 4 bits
      if (bytes.empty()) break;
      const auto flips = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        bytes[rng.below(bytes.size())] ^= static_cast<char>(1u << rng.below(8));
      }
      break;
    }
    case 1:  // truncate
      bytes.resize(rng.below(bytes.size() + 1));
      break;
    case 2: {  // extend with random bytes
      const auto extra = 1 + rng.below(16);
      for (std::uint64_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng.below(256)));
      }
      break;
    }
    case 3:  // overwrite the frame length field
      if (length_at != std::string::npos) {
        overwrite(bytes, length_at, 8, interesting(rng, bytes.size()));
        break;
      }
      [[fallthrough]];
    default:  // overwrite a random 4- or 8-byte window (count fields)
      if (!bytes.empty()) {
        overwrite(bytes, rng.below(bytes.size()), rng.below(2) == 0 ? 4 : 8,
                  interesting(rng, bytes.size()));
      }
      break;
  }
  return bytes;
}

// ---- checks --------------------------------------------------------------

/// A decode either fails with a non-OK Status or yields a message whose
/// re-encoding is a fixed point (decode . encode is stable after one
/// normalisation of bool bytes and unknown status codes).
template <typename Msg>
void check_message(const std::string& payload) {
  const common::Result<Msg> decoded = Msg::decode(payload);
  if (!decoded.is_ok()) {
    EXPECT_NE(decoded.status().code(), common::StatusCode::kOk);
    return;
  }
  const std::string once = decoded.value().encode();
  const common::Result<Msg> again = Msg::decode(once);
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_EQ(again.value().encode(), once);
}

void check_message(serve::MsgType type, const std::string& payload) {
  using serve::MsgType;
  switch (type) {
    case MsgType::kHello: return check_message<serve::Hello>(payload);
    case MsgType::kHelloAck: return check_message<serve::HelloAck>(payload);
    case MsgType::kSolveRequest: return check_message<serve::SolveRequest>(payload);
    case MsgType::kSweepRequest: return check_message<serve::SweepRequest>(payload);
    case MsgType::kStatRequest: return check_message<serve::StatRequest>(payload);
    case MsgType::kSolveResponse: return check_message<serve::SolveResponse>(payload);
    case MsgType::kSweepResponse: return check_message<serve::SweepResponse>(payload);
    case MsgType::kStatResponse: return check_message<serve::StatResponse>(payload);
    case MsgType::kError: return check_message<serve::ErrorResponse>(payload);
    case MsgType::kMetricsRequest: return check_message<serve::MetricsRequest>(payload);
    case MsgType::kMetricsResponse: return check_message<serve::MetricsResponse>(payload);
  }
  // An unknown type byte reaches no decoder; the server answers kError.
}

void check_record(store::RecordType type, const std::string& payload) {
  if (type == store::RecordType::kBlob) {
    const auto blob = store::decode_blob(payload);
    if (!blob.is_ok()) {
      EXPECT_NE(blob.status().code(), common::StatusCode::kOk);
      return;
    }
    const std::string once = store::encode_blob(blob.value());
    const auto again = store::decode_blob(once);
    ASSERT_TRUE(again.is_ok()) << again.status().to_string();
    EXPECT_EQ(store::encode_blob(again.value()), once);
    return;
  }
  const auto entry = store::decode_entry(payload);
  if (!entry.is_ok()) {
    EXPECT_NE(entry.status().code(), common::StatusCode::kOk);
    return;
  }
  const std::string once = store::encode_entry(entry.value());
  const auto again = store::decode_entry(once);
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_EQ(store::encode_entry(again.value()), once);
}

/// Feeds `bytes` in two chunks and drains the decoder: every delivered
/// frame goes through its message decoder; kOversized ends the stream.
void check_stream(const std::string& bytes, common::Rng& rng) {
  serve::FrameDecoder decoder;
  const std::size_t split = rng.below(bytes.size() + 1);
  std::size_t fed = 0;
  const auto drain = [&] {
    serve::Frame frame;
    while (true) {
      const auto result = decoder.next(frame);
      EXPECT_LE(decoder.buffered(), fed);
      if (result == serve::FrameDecoder::Result::kFrame) {
        check_message(frame.type, frame.payload);
        continue;
      }
      if (result != serve::FrameDecoder::Result::kBadCrc) return result;
    }
  };
  decoder.feed(bytes.data(), split);
  fed = split;
  if (drain() == serve::FrameDecoder::Result::kOversized) return;
  decoder.feed(bytes.data() + split, bytes.size() - split);
  fed = bytes.size();
  drain();
}

TEST(FrameFuzz, MutatedFramesAndPayloadsDecodeToStatus) {
  common::Rng rng(kSeed);
  const auto messages = seed_messages();
  const auto records = seed_records();
  for (int i = 0; i < kPayloadIterations; ++i) {
    const auto& [type, payload] = messages[rng.below(messages.size())];
    // An intact frame follows the mutated one, so the decoder also has to
    // find (or deliberately give up on) the next boundary.
    const std::string frame = serve::encode_frame(type, payload);
    check_stream(mutate(frame, rng, 1) + frame, rng);
    check_message(type, mutate(payload, rng));

    const auto& [record_type, record] = records[rng.below(records.size())];
    check_record(record_type, mutate(record, rng));
    const std::string framed = mutate(
        common::encode_frame(static_cast<std::uint8_t>(record_type), record), rng, 1);
    const common::FrameView view =
        common::decode_frame(framed.data(), framed.size(), 1ull << 30);
    // The CRC covers the type byte: an intact frame kept its type.
    if (view.result == common::FrameResult::kFrame) {
      check_record(record_type, std::string(view.payload));
    }
  }
}

TEST(FrameFuzz, MutatedStoreLogScansToIntactPrefix) {
  const std::string path = ::testing::TempDir() + "easched_frame_fuzz.log";
  std::remove(path.c_str());
  {
    auto opened = store::SolveStore::open(store::StoreOptions{path});
    ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
    store::SolveStore& st = opened.value();
    const api::InstanceDigest digest{1, 2};
    ASSERT_TRUE(st.put(digest, "instance", "vdd-lp", seed_point(4), seed_ok_result()).is_ok());
    ASSERT_TRUE(st.put(digest, "instance", "", seed_point(8), seed_failed_result()).is_ok());
  }
  const std::string log = read_file(path);
  ASSERT_GT(log.size(), 16u);

  common::Rng rng(kSeed + 1);
  for (int i = 0; i < kLogIterations; ++i) {
    // Aim length overwrites at the first record's length field (offset 17).
    write_file(path, mutate(log, rng, 17));

    // A reader's scan delivers only intact records; each decodes to a
    // value or a Status.
    auto reader = store::RecordLog::open(path, /*read_only=*/true);
    if (reader.is_ok()) {
      auto polled = reader.value().poll(check_record);
      ASSERT_TRUE(polled.is_ok()) << polled.status().to_string();
      EXPECT_LE(polled.value().records, 3u);
    } else {
      EXPECT_NE(reader.status().code(), common::StatusCode::kOk);
    }
    const auto verified = store::SolveStore::verify(path);
    if (!verified.is_ok()) {
      EXPECT_NE(verified.status().code(), common::StatusCode::kOk);
    }

    // A writer truncates to the intact prefix, which then verifies clean.
    // A mutated header is refused, not parsed.
    if (!store::SolveStore::open(store::StoreOptions{path}).is_ok()) continue;
    const auto clean = store::SolveStore::verify(path);
    ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
    EXPECT_EQ(clean.value().torn_bytes, 0u);
    EXPECT_LE(clean.value().entries, 2u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace easched
