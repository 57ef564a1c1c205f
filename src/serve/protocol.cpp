#include "serve/protocol.hpp"

#include "common/bytes.hpp"
#include "common/frame.hpp"
#include "graph/io.hpp"
#include "model/reliability.hpp"
#include "sched/list_scheduler.hpp"

namespace easched::serve {
namespace {

using common::ByteReader;
using common::ByteWriter;
/// Width of every string and vector count prefix on the wire (frozen).
using WireLen = std::uint32_t;

common::Status decode_status(ByteReader& r) {
  const std::uint8_t code = r.u8();
  std::string message = r.str<WireLen>();
  if (code > static_cast<std::uint8_t>(common::StatusCode::kOverloaded)) {
    // The peer sent a code this build does not know; surface the message
    // but never trust the byte as an enum value.
    return common::Status::internal("unknown wire status code " + std::to_string(code) +
                                    ": " + message);
  }
  const auto status_code = static_cast<common::StatusCode>(code);
  if (status_code == common::StatusCode::kOk) return common::Status::ok();
  return common::Status(status_code, std::move(message));
}

common::Result<model::SpeedModelKind> decode_speed_kind(std::uint8_t byte) {
  if (byte > static_cast<std::uint8_t>(model::SpeedModelKind::kIncremental)) {
    return common::Status::invalid("unknown wire speed-model kind " +
                                   std::to_string(byte));
  }
  return static_cast<model::SpeedModelKind>(byte);
}

ProblemSpec decode_problem(ByteReader& r, bool& kind_ok) {
  ProblemSpec spec;
  spec.dag_text = r.str<WireLen>();
  spec.processors = static_cast<std::int32_t>(r.u32());
  auto kind = decode_speed_kind(r.u8());
  kind_ok = kind.is_ok();
  if (kind_ok) spec.speed_kind = kind.value();
  spec.fmin = r.f64();
  spec.fmax = r.f64();
  spec.delta = r.f64();
  spec.levels = r.doubles<WireLen>();
  spec.deadline = r.f64();
  spec.tricrit = r.u8() != 0;
  spec.lambda0 = r.f64();
  spec.dexp = r.f64();
  spec.frel = r.f64();
  return spec;
}

/// Shared decode epilogue: a payload must parse completely and exactly.
/// Trailing bytes are as malformed as missing ones — they mean the peer
/// and this build disagree about the schema.
common::Status finish(const ByteReader& r, const char* what) {
  if (!r.ok()) return common::Status::invalid(std::string(what) + ": payload truncated");
  if (!r.at_end()) {
    return common::Status::invalid(std::string(what) + ": trailing bytes in payload");
  }
  return common::Status::ok();
}

}  // namespace

// ---- framing ------------------------------------------------------------

std::string encode_frame(MsgType type, const std::string& payload) {
  return common::encode_frame(static_cast<std::uint8_t>(type), payload);
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  // Reclaim the consumed prefix before growing: a long-lived connection
  // must not accumulate every frame it ever received.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Result FrameDecoder::next(Frame& out) {
  const common::FrameView frame =
      common::decode_frame(buf_.data() + pos_, buf_.size() - pos_, kMaxFrameBytes);
  // A bad-CRC frame is fully delimited too: consuming it costs exactly
  // this frame, never the stream position.
  pos_ += frame.size;
  if (frame.result == Result::kFrame) {
    out.type = static_cast<MsgType>(frame.type);
    out.payload.assign(frame.payload);
  }
  return frame.result;
}

// ---- wire status --------------------------------------------------------

void encode_status(std::string& out, const common::Status& status) {
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(status.code()));
  w.str<WireLen>(status.message());
}

// ---- handshake ----------------------------------------------------------

std::string Hello::encode() const {
  std::string out;
  ByteWriter w(out);
  w.u32(magic);
  w.u16(version);
  w.str<WireLen>(tenant);
  return out;
}

common::Result<Hello> Hello::decode(const std::string& payload) {
  ByteReader r(payload);
  Hello msg;
  msg.magic = r.u32();
  msg.version = r.u16();
  msg.tenant = r.str<WireLen>();
  if (auto status = finish(r, "Hello"); !status.is_ok()) return status;
  return msg;
}

std::string HelloAck::encode() const {
  std::string out;
  ByteWriter w(out);
  w.u16(version);
  encode_status(out, status);
  return out;
}

common::Result<HelloAck> HelloAck::decode(const std::string& payload) {
  ByteReader r(payload);
  HelloAck msg;
  msg.version = r.u16();
  msg.status = decode_status(r);
  if (auto status = finish(r, "HelloAck"); !status.is_ok()) return status;
  return msg;
}

// ---- problems -----------------------------------------------------------

void ProblemSpec::encode(std::string& out) const {
  ByteWriter w(out);
  w.str<WireLen>(dag_text);
  w.u32(static_cast<std::uint32_t>(processors));
  w.u8(static_cast<std::uint8_t>(speed_kind));
  w.f64(fmin);
  w.f64(fmax);
  w.f64(delta);
  w.doubles<WireLen>(levels);
  w.f64(deadline);
  w.u8(tricrit ? 1 : 0);
  w.f64(lambda0);
  w.f64(dexp);
  w.f64(frel);
}

std::string SolveRequest::encode() const {
  std::string out;
  ByteWriter w(out);
  w.u64(request_id);
  problem.encode(out);
  w.str<WireLen>(solver);
  w.f64(job_deadline_ms);
  return out;
}

common::Result<SolveRequest> SolveRequest::decode(const std::string& payload) {
  ByteReader r(payload);
  SolveRequest msg;
  msg.request_id = r.u64();
  bool kind_ok = true;
  msg.problem = decode_problem(r, kind_ok);
  msg.solver = r.str<WireLen>();
  msg.job_deadline_ms = r.f64();
  if (auto status = finish(r, "SolveRequest"); !status.is_ok()) return status;
  if (!kind_ok) return common::Status::invalid("SolveRequest: bad speed-model kind");
  return msg;
}

std::string SweepRequest::encode() const {
  std::string out;
  ByteWriter w(out);
  w.u64(request_id);
  problem.encode(out);
  w.u8(static_cast<std::uint8_t>(axis));
  w.f64(lo);
  w.f64(hi);
  w.u32(static_cast<std::uint32_t>(initial_points));
  w.u32(static_cast<std::uint32_t>(max_points));
  w.str<WireLen>(solver);
  w.f64(job_deadline_ms);
  w.doubles<WireLen>(prev_probes);
  return out;
}

common::Result<SweepRequest> SweepRequest::decode(const std::string& payload) {
  ByteReader r(payload);
  SweepRequest msg;
  msg.request_id = r.u64();
  bool kind_ok = true;
  msg.problem = decode_problem(r, kind_ok);
  const std::uint8_t axis_byte = r.u8();
  msg.lo = r.f64();
  msg.hi = r.f64();
  msg.initial_points = static_cast<std::int32_t>(r.u32());
  msg.max_points = static_cast<std::int32_t>(r.u32());
  msg.solver = r.str<WireLen>();
  msg.job_deadline_ms = r.f64();
  msg.prev_probes = r.doubles<WireLen>();
  if (auto status = finish(r, "SweepRequest"); !status.is_ok()) return status;
  if (!kind_ok) return common::Status::invalid("SweepRequest: bad speed-model kind");
  if (axis_byte > static_cast<std::uint8_t>(WireAxis::kReliability)) {
    return common::Status::invalid("SweepRequest: unknown sweep axis " +
                                   std::to_string(axis_byte));
  }
  msg.axis = static_cast<WireAxis>(axis_byte);
  return msg;
}

// ---- building problems --------------------------------------------------

common::Result<BuiltProblem> build_problem(const ProblemSpec& spec) {
  if (spec.processors < 1) {
    return common::Status::invalid("ProblemSpec: processors must be >= 1");
  }
  if (!(spec.deadline > 0.0)) {
    return common::Status::invalid("ProblemSpec: deadline must be > 0");
  }
  try {
    auto dag = graph::from_text(spec.dag_text);
    if (!dag.is_ok()) return dag.status();
    model::SpeedModel speeds = [&] {
      switch (spec.speed_kind) {
        case model::SpeedModelKind::kDiscrete:
          return model::SpeedModel::discrete(spec.levels);
        case model::SpeedModelKind::kVddHopping:
          return model::SpeedModel::vdd_hopping(spec.levels);
        case model::SpeedModelKind::kIncremental:
          return model::SpeedModel::incremental(spec.fmin, spec.fmax, spec.delta);
        case model::SpeedModelKind::kContinuous:
        default:
          return model::SpeedModel::continuous(spec.fmin, spec.fmax);
      }
    }();
    const auto mapping = sched::list_schedule(dag.value(), spec.processors,
                                              sched::PriorityPolicy::kCriticalPath);
    BuiltProblem built;
    if (spec.tricrit) {
      model::ReliabilityModel rel(spec.lambda0, spec.dexp, speeds.fmin(), speeds.fmax(),
                                  spec.frel);
      built.tricrit = std::make_shared<const core::TriCritProblem>(
          std::move(dag).take(), mapping, speeds, rel, spec.deadline);
    } else {
      built.bicrit = std::make_shared<const core::BiCritProblem>(
          std::move(dag).take(), mapping, speeds, spec.deadline);
    }
    return built;
  } catch (const std::exception& e) {
    return common::Status::invalid(std::string("ProblemSpec rejected: ") + e.what());
  }
}

common::Result<BuiltProblem> build_sweep(const SweepRequest& request,
                                         const ProblemBuilder& build) {
  if (request.initial_points < 1 || request.max_points < request.initial_points) {
    return common::Status::invalid("SweepRequest: need 1 <= initial_points <= max_points");
  }
  if (!(request.lo > 0.0) || !(request.lo <= request.hi)) {
    return common::Status::invalid("SweepRequest: need 0 < lo <= hi");
  }
  const bool reliability = request.axis == WireAxis::kReliability;
  if (reliability && !request.problem.tricrit) {
    return common::Status::invalid("SweepRequest: reliability sweeps need a TRI-CRIT problem");
  }
  ProblemSpec spec = request.problem;
  (reliability ? spec.frel : spec.deadline) = request.hi;
  auto built = build(spec);
  if (built.is_ok() && reliability) {
    const model::ReliabilityModel& rel = built.value().tricrit->reliability;
    if (request.lo < rel.fmin() || request.hi > rel.fmax()) {
      return common::Status::invalid(
          "SweepRequest: reliability range must lie within [fmin, fmax]");
    }
  }
  return built;
}

std::string StatRequest::encode() const {
  std::string out;
  ByteWriter w(out);
  w.u64(request_id);
  return out;
}

common::Result<StatRequest> StatRequest::decode(const std::string& payload) {
  ByteReader r(payload);
  StatRequest msg;
  msg.request_id = r.u64();
  if (auto status = finish(r, "StatRequest"); !status.is_ok()) return status;
  return msg;
}

std::string MetricsRequest::encode() const {
  std::string out;
  ByteWriter w(out);
  w.u64(request_id);
  w.u8(static_cast<std::uint8_t>(format));
  return out;
}

common::Result<MetricsRequest> MetricsRequest::decode(const std::string& payload) {
  ByteReader r(payload);
  MetricsRequest msg;
  msg.request_id = r.u64();
  const std::uint8_t format_byte = r.u8();
  if (auto status = finish(r, "MetricsRequest"); !status.is_ok()) return status;
  if (format_byte > static_cast<std::uint8_t>(MetricsFormat::kJson)) {
    return common::Status::invalid("MetricsRequest: unknown format " +
                                   std::to_string(format_byte));
  }
  msg.format = static_cast<MetricsFormat>(format_byte);
  return msg;
}

// ---- responses ----------------------------------------------------------

std::string SolveResponse::encode() const {
  std::string out;
  ByteWriter w(out);
  w.u64(request_id);
  encode_status(out, status);
  w.f64(energy);
  w.f64(makespan);
  w.f64(wall_ms);
  w.str<WireLen>(solver);
  w.u8(exact ? 1 : 0);
  w.i64(iterations);
  w.u32(static_cast<std::uint32_t>(re_executed));
  return out;
}

common::Result<SolveResponse> SolveResponse::decode(const std::string& payload) {
  ByteReader r(payload);
  SolveResponse msg;
  msg.request_id = r.u64();
  msg.status = decode_status(r);
  msg.energy = r.f64();
  msg.makespan = r.f64();
  msg.wall_ms = r.f64();
  msg.solver = r.str<WireLen>();
  msg.exact = r.u8() != 0;
  msg.iterations = r.i64();
  msg.re_executed = static_cast<std::int32_t>(r.u32());
  if (auto status = finish(r, "SolveResponse"); !status.is_ok()) return status;
  return msg;
}

std::string SweepResponse::encode() const {
  std::string out;
  ByteWriter w(out);
  w.u64(request_id);
  encode_status(out, status);
  w.u8(static_cast<std::uint8_t>(axis));
  w.u32(static_cast<std::uint32_t>(points.size()));
  for (const auto& p : points) {
    w.f64(p.constraint);
    w.f64(p.energy);
    w.f64(p.makespan);
    w.str<WireLen>(p.solver);
    w.u8(p.exact ? 1 : 0);
  }
  w.doubles<WireLen>(probes);
  w.u64(evaluated);
  w.u64(infeasible);
  w.u64(cache_hits);
  w.u64(prefetched);
  w.f64(wall_ms);
  return out;
}

common::Result<SweepResponse> SweepResponse::decode(const std::string& payload) {
  ByteReader r(payload);
  SweepResponse msg;
  msg.request_id = r.u64();
  msg.status = decode_status(r);
  const std::uint8_t axis_byte = r.u8();
  const std::uint32_t num_points = r.u32();
  for (std::uint32_t i = 0; i < num_points && r.ok(); ++i) {
    WirePoint p;
    p.constraint = r.f64();
    p.energy = r.f64();
    p.makespan = r.f64();
    p.solver = r.str<WireLen>();
    p.exact = r.u8() != 0;
    msg.points.push_back(std::move(p));
  }
  msg.probes = r.doubles<WireLen>();
  msg.evaluated = r.u64();
  msg.infeasible = r.u64();
  msg.cache_hits = r.u64();
  msg.prefetched = r.u64();
  msg.wall_ms = r.f64();
  if (auto status = finish(r, "SweepResponse"); !status.is_ok()) return status;
  if (axis_byte > static_cast<std::uint8_t>(WireAxis::kReliability)) {
    return common::Status::invalid("SweepResponse: unknown sweep axis " +
                                   std::to_string(axis_byte));
  }
  msg.axis = static_cast<WireAxis>(axis_byte);
  return msg;
}

std::string StatResponse::encode() const {
  std::string out;
  ByteWriter w(out);
  w.u64(request_id);
  w.u64(threads);
  w.u64(queued_jobs);
  w.u64(cache_entries);
  w.u64(cache_hits);
  w.u64(cache_misses);
  w.u64(store_hits);
  w.u8(has_store ? 1 : 0);
  w.u64(store_entries);
  w.u64(store_blobs);
  w.u64(store_bytes);
  w.u64(tenant_accepted);
  w.u64(tenant_shed);
  w.u64(tenant_completed);
  w.u64(tenant_in_flight);
  w.u64(tenant_deadline_exceeded);
  return out;
}

common::Result<StatResponse> StatResponse::decode(const std::string& payload) {
  ByteReader r(payload);
  StatResponse msg;
  msg.request_id = r.u64();
  msg.threads = r.u64();
  msg.queued_jobs = r.u64();
  msg.cache_entries = r.u64();
  msg.cache_hits = r.u64();
  msg.cache_misses = r.u64();
  msg.store_hits = r.u64();
  msg.has_store = r.u8() != 0;
  msg.store_entries = r.u64();
  msg.store_blobs = r.u64();
  msg.store_bytes = r.u64();
  msg.tenant_accepted = r.u64();
  msg.tenant_shed = r.u64();
  msg.tenant_completed = r.u64();
  msg.tenant_in_flight = r.u64();
  msg.tenant_deadline_exceeded = r.u64();
  if (auto status = finish(r, "StatResponse"); !status.is_ok()) return status;
  return msg;
}

std::string MetricsResponse::encode() const {
  std::string out;
  ByteWriter w(out);
  w.u64(request_id);
  encode_status(out, status);
  w.u8(static_cast<std::uint8_t>(format));
  w.str<WireLen>(body);
  return out;
}

common::Result<MetricsResponse> MetricsResponse::decode(const std::string& payload) {
  ByteReader r(payload);
  MetricsResponse msg;
  msg.request_id = r.u64();
  msg.status = decode_status(r);
  const std::uint8_t format_byte = r.u8();
  msg.body = r.str<WireLen>();
  if (auto status = finish(r, "MetricsResponse"); !status.is_ok()) return status;
  if (format_byte > static_cast<std::uint8_t>(MetricsFormat::kJson)) {
    return common::Status::invalid("MetricsResponse: unknown format " +
                                   std::to_string(format_byte));
  }
  msg.format = static_cast<MetricsFormat>(format_byte);
  return msg;
}

std::string ErrorResponse::encode() const {
  std::string out;
  ByteWriter w(out);
  w.u64(request_id);
  encode_status(out, status);
  return out;
}

common::Result<ErrorResponse> ErrorResponse::decode(const std::string& payload) {
  ByteReader r(payload);
  ErrorResponse msg;
  msg.request_id = r.u64();
  msg.status = decode_status(r);
  if (auto status = finish(r, "ErrorResponse"); !status.is_ok()) return status;
  return msg;
}

}  // namespace easched::serve
