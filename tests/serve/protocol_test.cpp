// serve protocol: framing and message codecs. The wire contract under
// test:
//   * every message round-trips encode -> decode bit-exactly;
//   * a frame split across arbitrary feed() chunks still decodes;
//   * a corrupt frame costs exactly one kBadCrc — the stream position
//     survives and the next frame decodes normally;
//   * an oversized length is fatal (kOversized), truncated input is
//     kNeedMore, and garbage payloads decode to kInvalidArgument — never
//     UB, never an exception;
//   * the exact bytes of one frame per message type are frozen (golden
//     hex below), so encode and decode cannot drift together unnoticed.

#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace easched::serve {
namespace {

/// Feeds `bytes` one byte at a time and expects exactly one frame.
Frame decode_single(const std::string& bytes) {
  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i + 1 < bytes.size()) {
      // No frame may complete before the last byte arrives.
      EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore);
    }
    decoder.feed(bytes.data() + i, 1);
  }
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore);
  return frame;
}

/// Lower-case hex of `bytes`, two digits per byte, no separators.
std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  return out;
}

ProblemSpec sample_problem() {
  ProblemSpec spec;
  spec.dag_text = "dag 2\ntask 0 1.5\ntask 1 2.5\nedge 0 1\n";
  spec.processors = 3;
  spec.speed_kind = model::SpeedModelKind::kDiscrete;
  spec.levels = {0.25, 0.5, 1.0};
  spec.deadline = 12.5;
  spec.tricrit = true;
  spec.lambda0 = 2e-5;
  spec.dexp = 3.5;
  spec.frel = 0.75;
  return spec;
}

TEST(ServeProtocol, HelloRoundTrip) {
  Hello hello;
  hello.tenant = "team-blue";
  const Frame frame = decode_single(encode_frame(MsgType::kHello, hello.encode()));
  EXPECT_EQ(frame.type, MsgType::kHello);
  auto decoded = Hello::decode(frame.payload);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().magic, kMagic);
  EXPECT_EQ(decoded.value().version, kProtocolVersion);
  EXPECT_EQ(decoded.value().tenant, "team-blue");
}

TEST(ServeProtocol, HelloAckCarriesRejectionStatus) {
  HelloAck ack;
  ack.version = 7;
  ack.status = common::Status::unsupported("wrong protocol version");
  auto decoded = HelloAck::decode(ack.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().version, 7);
  EXPECT_EQ(decoded.value().status.code(), common::StatusCode::kUnsupported);
  EXPECT_EQ(decoded.value().status.message(), "wrong protocol version");
}

TEST(ServeProtocol, SolveRequestRoundTrip) {
  SolveRequest request;
  request.request_id = 42;
  request.problem = sample_problem();
  request.solver = "best-of";
  request.job_deadline_ms = 125.0;
  auto decoded = SolveRequest::decode(request.encode());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const auto& r = decoded.value();
  EXPECT_EQ(r.request_id, 42u);
  EXPECT_EQ(r.problem.dag_text, request.problem.dag_text);
  EXPECT_EQ(r.problem.processors, 3);
  EXPECT_EQ(r.problem.speed_kind, model::SpeedModelKind::kDiscrete);
  EXPECT_EQ(r.problem.levels, request.problem.levels);
  EXPECT_EQ(r.problem.deadline, 12.5);
  EXPECT_TRUE(r.problem.tricrit);
  EXPECT_EQ(r.problem.lambda0, 2e-5);
  EXPECT_EQ(r.problem.dexp, 3.5);
  EXPECT_EQ(r.problem.frel, 0.75);
  EXPECT_EQ(r.solver, "best-of");
  EXPECT_EQ(r.job_deadline_ms, 125.0);
}

TEST(ServeProtocol, SweepRequestRoundTripWithProbes) {
  SweepRequest request;
  request.request_id = 7;
  request.problem = sample_problem();
  request.axis = WireAxis::kReliability;
  request.lo = 0.3;
  request.hi = 0.9;
  request.initial_points = 5;
  request.max_points = 17;
  request.solver = "heuristic-A";
  request.prev_probes = {0.3, 0.45, 0.6, 0.9};
  auto decoded = SweepRequest::decode(request.encode());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const auto& r = decoded.value();
  EXPECT_EQ(r.request_id, 7u);
  EXPECT_EQ(r.axis, WireAxis::kReliability);
  EXPECT_EQ(r.lo, 0.3);
  EXPECT_EQ(r.hi, 0.9);
  EXPECT_EQ(r.initial_points, 5);
  EXPECT_EQ(r.max_points, 17);
  EXPECT_EQ(r.solver, "heuristic-A");
  EXPECT_EQ(r.prev_probes, request.prev_probes);
}

TEST(ServeProtocol, ResponsesRoundTrip) {
  SolveResponse solve;
  solve.request_id = 9;
  solve.status = common::Status::overloaded("tenant quota");
  solve.energy = 3.25;
  solve.makespan = 11.0;
  solve.wall_ms = 0.5;
  solve.solver = "continuous-kkt";
  solve.exact = true;
  solve.iterations = 12;
  solve.re_executed = 2;
  auto solve_decoded = SolveResponse::decode(solve.encode());
  ASSERT_TRUE(solve_decoded.is_ok());
  EXPECT_EQ(solve_decoded.value().status.code(), common::StatusCode::kOverloaded);
  EXPECT_EQ(solve_decoded.value().energy, 3.25);
  EXPECT_EQ(solve_decoded.value().solver, "continuous-kkt");
  EXPECT_TRUE(solve_decoded.value().exact);
  EXPECT_EQ(solve_decoded.value().iterations, 12);
  EXPECT_EQ(solve_decoded.value().re_executed, 2);

  SweepResponse sweep;
  sweep.request_id = 10;
  sweep.axis = WireAxis::kDeadline;
  sweep.points = {{8.0, 5.5, 7.9, "continuous-kkt", true},
                  {16.0, 2.75, 15.8, "continuous-kkt", true}};
  sweep.probes = {8.0, 12.0, 16.0};
  sweep.evaluated = 3;
  sweep.infeasible = 1;
  sweep.cache_hits = 2;
  sweep.prefetched = 1;
  sweep.wall_ms = 4.5;
  auto sweep_decoded = SweepResponse::decode(sweep.encode());
  ASSERT_TRUE(sweep_decoded.is_ok());
  ASSERT_EQ(sweep_decoded.value().points.size(), 2u);
  EXPECT_EQ(sweep_decoded.value().points[1].constraint, 16.0);
  EXPECT_EQ(sweep_decoded.value().points[1].energy, 2.75);
  EXPECT_EQ(sweep_decoded.value().points[0].solver, "continuous-kkt");
  EXPECT_EQ(sweep_decoded.value().probes, sweep.probes);
  EXPECT_EQ(sweep_decoded.value().evaluated, 3u);
  EXPECT_EQ(sweep_decoded.value().prefetched, 1u);

  StatResponse stat;
  stat.request_id = 11;
  stat.threads = 4;
  stat.queued_jobs = 2;
  stat.cache_entries = 100;
  stat.has_store = true;
  stat.store_bytes = 4096;
  stat.tenant_shed = 5;
  stat.tenant_deadline_exceeded = 3;
  auto stat_decoded = StatResponse::decode(stat.encode());
  ASSERT_TRUE(stat_decoded.is_ok());
  EXPECT_EQ(stat_decoded.value().threads, 4u);
  EXPECT_TRUE(stat_decoded.value().has_store);
  EXPECT_EQ(stat_decoded.value().store_bytes, 4096u);
  EXPECT_EQ(stat_decoded.value().tenant_shed, 5u);
  EXPECT_EQ(stat_decoded.value().tenant_deadline_exceeded, 3u);

  ErrorResponse error;
  error.request_id = 0;
  error.status = common::Status::invalid("frame checksum mismatch");
  auto error_decoded = ErrorResponse::decode(error.encode());
  ASSERT_TRUE(error_decoded.is_ok());
  EXPECT_EQ(error_decoded.value().request_id, 0u);
  EXPECT_EQ(error_decoded.value().status.code(), common::StatusCode::kInvalidArgument);
}

TEST(ServeProtocol, MetricsMessagesRoundTrip) {
  MetricsRequest request;
  request.request_id = 13;
  request.format = MetricsFormat::kJson;
  auto request_decoded = MetricsRequest::decode(request.encode());
  ASSERT_TRUE(request_decoded.is_ok()) << request_decoded.status().to_string();
  EXPECT_EQ(request_decoded.value().request_id, 13u);
  EXPECT_EQ(request_decoded.value().format, MetricsFormat::kJson);

  // The body is carried verbatim — exposition text with quotes, braces
  // and newlines must survive the wire untouched.
  MetricsResponse response;
  response.request_id = 13;
  response.format = MetricsFormat::kText;
  response.body =
      "# TYPE easched_serve_requests_total counter\n"
      "easched_serve_requests_total{tenant=\"acme\"} 7\n";
  auto response_decoded = MetricsResponse::decode(response.encode());
  ASSERT_TRUE(response_decoded.is_ok()) << response_decoded.status().to_string();
  EXPECT_EQ(response_decoded.value().request_id, 13u);
  EXPECT_EQ(response_decoded.value().format, MetricsFormat::kText);
  EXPECT_EQ(response_decoded.value().body, response.body);
  EXPECT_TRUE(response_decoded.value().status.is_ok());

  // A refusal (metrics disabled on the daemon) round-trips its status.
  MetricsResponse refused;
  refused.request_id = 14;
  refused.status = common::Status::unsupported("metrics are disabled");
  auto refused_decoded = MetricsResponse::decode(refused.encode());
  ASSERT_TRUE(refused_decoded.is_ok());
  EXPECT_EQ(refused_decoded.value().status.code(), common::StatusCode::kUnsupported);
  EXPECT_TRUE(refused_decoded.value().body.empty());

  EXPECT_FALSE(MetricsRequest::decode("\x01junk").is_ok());
  EXPECT_FALSE(MetricsResponse::decode("\x01junk").is_ok());
}

TEST(ServeProtocol, CorruptFrameCostsOneErrorNotTheStream) {
  StatRequest request;
  request.request_id = 3;
  std::string corrupt = encode_frame(MsgType::kStatRequest, request.encode());
  corrupt[corrupt.size() - 5] ^= 0x40;  // flip a payload bit: CRC must catch it
  const std::string good = encode_frame(MsgType::kStatRequest, request.encode());

  FrameDecoder decoder;
  decoder.feed(corrupt.data(), corrupt.size());
  decoder.feed(good.data(), good.size());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kBadCrc);
  // The corrupt frame was consumed whole: the next frame is intact.
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, MsgType::kStatRequest);
  auto decoded = StatRequest::decode(frame.payload);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().request_id, 3u);
}

TEST(ServeProtocol, OversizedLengthIsFatal) {
  // A hand-built header claiming a payload beyond kMaxFrameBytes: the
  // decoder must refuse without waiting for (or allocating) the payload.
  std::string header;
  header.push_back(static_cast<char>(MsgType::kSolveRequest));
  const std::uint64_t huge = kMaxFrameBytes + 1;
  for (int i = 0; i < 8; ++i) {
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  FrameDecoder decoder;
  decoder.feed(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kOversized);
}

TEST(ServeProtocol, TruncatedFrameWaitsForMore) {
  Hello hello;
  hello.tenant = "t";
  const std::string bytes = encode_frame(MsgType::kHello, hello.encode());
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size() - 1);  // withhold the last CRC byte
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore);
  decoder.feed(bytes.data() + bytes.size() - 1, 1);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, MsgType::kHello);
}

TEST(ServeProtocol, GarbagePayloadsDecodeToStatusNotUb) {
  const std::string garbage = "\x01\x02\x03nonsense";
  EXPECT_FALSE(Hello::decode(garbage).is_ok());
  EXPECT_FALSE(HelloAck::decode(garbage).is_ok());
  EXPECT_FALSE(SolveRequest::decode(garbage).is_ok());
  EXPECT_FALSE(SweepRequest::decode(garbage).is_ok());
  EXPECT_FALSE(StatRequest::decode(garbage).is_ok());
  EXPECT_FALSE(SolveResponse::decode(garbage).is_ok());
  EXPECT_FALSE(SweepResponse::decode(garbage).is_ok());
  EXPECT_FALSE(StatResponse::decode(garbage).is_ok());
  EXPECT_FALSE(ErrorResponse::decode(garbage).is_ok());
  EXPECT_FALSE(Hello::decode("").is_ok());
}

TEST(ServeProtocol, TrailingBytesAreMalformed) {
  StatRequest request;
  request.request_id = 5;
  std::string payload = request.encode();
  ASSERT_TRUE(StatRequest::decode(payload).is_ok());
  payload.push_back('\0');  // one stray byte: the payload no longer parses
  EXPECT_FALSE(StatRequest::decode(payload).is_ok());
}

TEST(ServeProtocol, SweepRequestRejectsAbsurdProbeCount) {
  // A probe-count field larger than the remaining payload could ever hold
  // must fail cleanly instead of reserving gigabytes.
  SweepRequest request;
  request.request_id = 1;
  request.problem = sample_problem();
  std::string payload = request.encode();
  // The probe count is the last u32 (the probe vector is empty): inflate it.
  payload[payload.size() - 4] = static_cast<char>(0xff);
  payload[payload.size() - 3] = static_cast<char>(0xff);
  payload[payload.size() - 2] = static_cast<char>(0xff);
  payload[payload.size() - 1] = static_cast<char>(0x7f);
  EXPECT_FALSE(SweepRequest::decode(payload).is_ok());
}

/// Golden frames: a small problem with fixed field values, one frame per
/// message type. Each expectation is [type][len u64][payload][crc32], the
/// payload split one field per string piece.
ProblemSpec golden_problem() {
  ProblemSpec spec;
  spec.dag_text = "dag 1\ntask 0 2\n";
  spec.processors = 1;
  spec.speed_kind = model::SpeedModelKind::kDiscrete;
  spec.fmin = 0.25;
  spec.levels = {0.5, 1.0};
  spec.deadline = 4.0;
  spec.lambda0 = 0.5;
  spec.dexp = 3.0;
  return spec;
}

TEST(ServeProtocolGolden, EveryMessageTypeFramesToFixedBytes) {
  Hello hello;
  hello.tenant = "acme";
  EXPECT_EQ(hex(encode_frame(MsgType::kHello, hello.encode())),
            "01"  // type kHello
            "0e00000000000000"  // payload length 14
            "45415331"  // magic "EAS1"
            "0100"  // version 1
            "04000000"  // tenant length 4
            "61636d65"  // "acme"
            "647f696a");  // crc32

  HelloAck ack;
  ack.status = common::Status::unsupported("v2");
  EXPECT_EQ(hex(encode_frame(MsgType::kHelloAck, ack.encode())),
            "02"  // type kHelloAck
            "0900000000000000"  // payload length 9
            "0100"  // version 1
            "05"  // status code kUnsupported
            "02000000"  // message length 2
            "7632"  // message
            "0c3540ba");  // crc32

  SolveRequest solve;
  solve.request_id = 42;
  solve.problem = golden_problem();
  solve.solver = "vdd-lp";
  solve.job_deadline_ms = 0.5;
  EXPECT_EQ(hex(encode_frame(MsgType::kSolveRequest, solve.encode())),
            "03"  // type kSolveRequest
            "7f00000000000000"  // payload length 127
            "2a00000000000000"  // request_id 42
            "0f000000"  // dag_text length 15
            "64616720310a7461736b203020320a"  // "dag 1\ntask 0 2\n"
            "01000000"  // processors 1
            "01"  // speed kind kDiscrete
            "000000000000d03f"  // fmin 0.25
            "000000000000f03f"  // fmax 1.0
            "0000000000000000"  // delta 0
            "02000000"  // level count 2
            "000000000000e03f"  // level 0.5
            "000000000000f03f"  // level 1.0
            "0000000000001040"  // deadline 4.0
            "00"  // tricrit 0
            "000000000000e03f"  // lambda0 0.5
            "0000000000000840"  // dexp 3.0
            "0000000000000000"  // frel 0
            "06000000"  // solver length 6
            "7664642d6c70"  // "vdd-lp"
            "000000000000e03f"  // job_deadline_ms 0.5
            "7aaaad56");  // crc32

  SweepRequest sweep;
  sweep.request_id = 7;
  sweep.problem = golden_problem();
  sweep.problem.tricrit = true;
  sweep.problem.frel = 1.0;
  sweep.axis = WireAxis::kReliability;
  sweep.lo = 0.5;
  sweep.hi = 1.0;
  sweep.initial_points = 3;
  sweep.max_points = 5;
  sweep.prev_probes = {0.75};
  EXPECT_EQ(hex(encode_frame(MsgType::kSweepRequest, sweep.encode())),
            "04"  // type kSweepRequest
            "9e00000000000000"  // payload length 158
            "0700000000000000"  // request_id 7
            "0f000000"  // dag_text length 15
            "64616720310a7461736b203020320a"  // "dag 1\ntask 0 2\n"
            "01000000"  // processors 1
            "01"  // speed kind kDiscrete
            "000000000000d03f"  // fmin 0.25
            "000000000000f03f"  // fmax 1.0
            "0000000000000000"  // delta 0
            "02000000"  // level count 2
            "000000000000e03f"  // level 0.5
            "000000000000f03f"  // level 1.0
            "0000000000001040"  // deadline 4.0
            "01"  // tricrit 1
            "000000000000e03f"  // lambda0 0.5
            "0000000000000840"  // dexp 3.0
            "000000000000f03f"  // frel 1.0
            "01"  // axis kReliability
            "000000000000e03f"  // lo 0.5
            "000000000000f03f"  // hi 1.0
            "03000000"  // initial_points 3
            "05000000"  // max_points 5
            "00000000"  // solver length 0
            "0000000000000000"  // job_deadline_ms 0
            "01000000"  // probe count 1
            "000000000000e83f"  // probe 0.75
            "c97851f1");  // crc32

  StatRequest stat;
  stat.request_id = 3;
  EXPECT_EQ(hex(encode_frame(MsgType::kStatRequest, stat.encode())),
            "05"  // type kStatRequest
            "0800000000000000"  // payload length 8
            "0300000000000000"  // request_id 3
            "9d85ddc0");  // crc32

  SolveResponse solved;
  solved.request_id = 42;
  solved.energy = 2.0;
  solved.makespan = 4.0;
  solved.wall_ms = 0.5;
  solved.solver = "vdd-lp";
  solved.exact = true;
  solved.iterations = 3;
  solved.re_executed = 1;
  EXPECT_EQ(hex(encode_frame(MsgType::kSolveResponse, solved.encode())),
            "06"  // type kSolveResponse
            "3c00000000000000"  // payload length 60
            "2a00000000000000"  // request_id 42
            "00"  // status code kOk
            "00000000"  // message length 0
            "0000000000000040"  // energy 2.0
            "0000000000001040"  // makespan 4.0
            "000000000000e03f"  // wall_ms 0.5
            "06000000"  // solver length 6
            "7664642d6c70"  // "vdd-lp"
            "01"  // exact 1
            "0300000000000000"  // iterations 3
            "01000000"  // re_executed 1
            "16566e5d");  // crc32

  SweepResponse swept;
  swept.request_id = 7;
  swept.points = {{4.0, 2.0, 4.0, "x", true}};
  swept.probes = {4.0};
  swept.evaluated = 1;
  swept.wall_ms = 1.0;
  EXPECT_EQ(hex(encode_frame(MsgType::kSweepResponse, swept.encode())),
            "07"  // type kSweepResponse
            "6400000000000000"  // payload length 100
            "0700000000000000"  // request_id 7
            "00"  // status code kOk
            "00000000"  // message length 0
            "00"  // axis kDeadline
            "01000000"  // point count 1
            "0000000000001040"  // constraint 4.0
            "0000000000000040"  // energy 2.0
            "0000000000001040"  // makespan 4.0
            "01000000"  // solver length 1
            "78"  // "x"
            "01"  // exact 1
            "01000000"  // probe count 1
            "0000000000001040"  // probe 4.0
            "0100000000000000"  // evaluated 1
            "0000000000000000"  // infeasible 0
            "0000000000000000"  // cache_hits 0
            "0000000000000000"  // prefetched 0
            "000000000000f03f"  // wall_ms 1.0
            "98c5826c");  // crc32

  StatResponse stats;
  stats.request_id = 3;
  stats.threads = 2;
  stats.cache_entries = 5;
  stats.has_store = true;
  stats.store_bytes = 256;
  stats.tenant_accepted = 1;
  EXPECT_EQ(hex(encode_frame(MsgType::kStatResponse, stats.encode())),
            "08"  // type kStatResponse
            "7900000000000000"  // payload length 121
            "0300000000000000"  // request_id 3
            "0200000000000000"  // threads 2
            "0000000000000000"  // queued_jobs 0
            "0500000000000000"  // cache_entries 5
            "0000000000000000"  // cache_hits 0
            "0000000000000000"  // cache_misses 0
            "0000000000000000"  // store_hits 0
            "01"  // has_store 1
            "0000000000000000"  // store_entries 0
            "0000000000000000"  // store_blobs 0
            "0001000000000000"  // store_bytes 256
            "0100000000000000"  // tenant_accepted 1
            "0000000000000000"  // tenant_shed 0
            "0000000000000000"  // tenant_completed 0
            "0000000000000000"  // tenant_in_flight 0
            "0000000000000000"  // tenant_deadline_exceeded 0
            "f0fda810");  // crc32

  ErrorResponse error;
  error.status = common::Status::invalid("bad");
  EXPECT_EQ(hex(encode_frame(MsgType::kError, error.encode())),
            "09"  // type kError
            "1000000000000000"  // payload length 16
            "0000000000000000"  // request_id 0
            "04"  // status code kInvalidArgument
            "03000000"  // message length 3
            "626164"  // message
            "8586ecd7");  // crc32

  MetricsRequest metrics;
  metrics.request_id = 5;
  metrics.format = MetricsFormat::kJson;
  EXPECT_EQ(hex(encode_frame(MsgType::kMetricsRequest, metrics.encode())),
            "0a"  // type kMetricsRequest
            "0900000000000000"  // payload length 9
            "0500000000000000"  // request_id 5
            "01"  // format kJson
            "c6fbb829");  // crc32

  MetricsResponse scraped;
  scraped.request_id = 5;
  scraped.body = "up 1\n";
  EXPECT_EQ(hex(encode_frame(MsgType::kMetricsResponse, scraped.encode())),
            "0b"  // type kMetricsResponse
            "1700000000000000"  // payload length 23
            "0500000000000000"  // request_id 5
            "00"  // status code kOk
            "00000000"  // message length 0
            "00"  // format kText
            "05000000"  // body length 5
            "757020310a"  // "up 1\n"
            "0617b860");  // crc32
}

}  // namespace
}  // namespace easched::serve
