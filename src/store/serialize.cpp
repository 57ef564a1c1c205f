#include "store/serialize.hpp"

#include "common/bytes.hpp"
#include "core/problem.hpp"
#include "sched/schedule.hpp"

namespace easched::store {
namespace {

using common::ByteReader;
using common::ByteWriter;
/// Width of every string count prefix in a record payload (frozen).
using StoreLen = std::uint64_t;

// At most a primary execution and one re-execution per task. Task and
// interval counts are bounded by the bytes left (ByteReader::fits).
constexpr std::int64_t kMaxExecutions = 2;

void put_schedule(ByteWriter& w, const sched::Schedule& schedule) {
  w.i64(schedule.num_tasks());
  for (int t = 0; t < schedule.num_tasks(); ++t) {
    const auto& decision = schedule.at(t);
    w.i64(static_cast<std::int64_t>(decision.executions.size()));
    for (const auto& exec : decision.executions) {
      w.f64(exec.speed);
      w.i64(static_cast<std::int64_t>(exec.profile.size()));
      for (const auto& interval : exec.profile) {
        w.f64(interval.speed);
        w.f64(interval.time);
      }
    }
  }
}

bool get_schedule(ByteReader& r, sched::Schedule& out) {
  // Every task holds at least its 8-byte execution count.
  const std::int64_t tasks = r.i64();
  if (tasks < 0 || !r.fits(static_cast<std::uint64_t>(tasks), 8)) return false;
  out = sched::Schedule(static_cast<int>(tasks));
  for (std::int64_t t = 0; t < tasks; ++t) {
    const std::int64_t execs = r.i64();
    if (!r.ok() || execs < 0 || execs > kMaxExecutions) return false;
    auto& decision = out.at(static_cast<int>(t));
    decision.executions.resize(static_cast<std::size_t>(execs));
    for (auto& exec : decision.executions) {
      exec.speed = r.f64();
      // Every interval is two doubles.
      const std::int64_t profile = r.i64();
      if (profile < 0 || !r.fits(static_cast<std::uint64_t>(profile), 16)) return false;
      exec.profile.resize(static_cast<std::size_t>(profile));
      for (auto& interval : exec.profile) {
        interval.speed = r.f64();
        interval.time = r.f64();
      }
    }
  }
  return r.ok();
}

void put_result(ByteWriter& w, const common::Result<api::SolveReport>& result) {
  w.u8(result.is_ok() ? 1 : 0);
  if (!result.is_ok()) {
    w.u8(static_cast<std::uint8_t>(result.status().code()));
    w.str<StoreLen>(result.status().message());
    return;
  }
  const api::SolveReport& report = result.value();
  w.f64(report.energy);
  w.f64(report.makespan);
  w.str<StoreLen>(report.solver);
  w.u8(static_cast<std::uint8_t>(report.problem));
  w.f64(report.wall_ms);
  w.i64(report.iterations);
  w.i64(report.re_executed);
  w.u8(report.exact ? 1 : 0);
  w.f64(report.gap_bound);
  put_schedule(w, report.schedule);
}

common::Result<common::Result<api::SolveReport>> get_result(ByteReader& r) {
  const auto bad = [] {
    return common::Status::invalid("corrupt entry record payload");
  };
  const std::uint8_t is_ok = r.u8();
  if (!r.ok()) return bad();
  if (is_ok == 0) {
    const auto code = static_cast<common::StatusCode>(r.u8());
    std::string message = r.str<StoreLen>();
    if (!r.ok() || code == common::StatusCode::kOk) return bad();
    return common::Result<api::SolveReport>(common::Status(code, std::move(message)));
  }
  api::SolveReport report;
  report.energy = r.f64();
  report.makespan = r.f64();
  report.solver = r.str<StoreLen>();
  report.problem = r.u8() == 0 ? api::ProblemKind::kBiCrit : api::ProblemKind::kTriCrit;
  report.wall_ms = r.f64();
  report.iterations = r.i64();
  report.re_executed = static_cast<int>(r.i64());
  report.exact = r.u8() != 0;
  report.gap_bound = r.f64();
  if (!get_schedule(r, report.schedule)) return bad();
  return common::Result<api::SolveReport>(std::move(report));
}

}  // namespace

std::string encode_blob(const BlobRecord& blob) {
  std::string out;
  out.reserve(32 + blob.bytes.size());
  ByteWriter w(out);
  w.u64(blob.id);
  w.u64(blob.digest.hi);
  w.u64(blob.digest.lo);
  w.str<StoreLen>(blob.bytes);
  return out;
}

common::Result<BlobRecord> decode_blob(const std::string& payload) {
  ByteReader r(payload);
  BlobRecord blob;
  blob.id = r.u64();
  blob.digest.hi = r.u64();
  blob.digest.lo = r.u64();
  blob.bytes = r.str<StoreLen>();
  if (!r.ok() || !r.at_end() || blob.id == 0) {
    return common::Status::invalid("corrupt blob record payload");
  }
  return blob;
}

std::string encode_entry(const EntryRecord& entry) {
  std::string out;
  out.reserve(128);
  ByteWriter w(out);
  w.u64(entry.blob_id);
  w.str<StoreLen>(entry.solver);
  w.u8(entry.point.kind);
  w.u64(entry.point.deadline_bits);
  w.u64(entry.point.frel_bits);
  w.i64(entry.point.approx_K);
  w.u64(entry.point.gap_tolerance_bits);
  w.i64(entry.point.max_nodes);
  w.i64(entry.point.dp_buckets);
  w.i64(entry.point.fork_grid);
  w.i64(entry.point.polish);
  put_result(w, *entry.result);
  return out;
}

common::Result<EntryRecord> decode_entry(const std::string& payload) {
  ByteReader r(payload);
  EntryRecord entry;
  entry.blob_id = r.u64();
  entry.solver = r.str<StoreLen>();
  entry.point.kind = r.u8();
  entry.point.deadline_bits = r.u64();
  entry.point.frel_bits = r.u64();
  entry.point.approx_K = r.i64();
  entry.point.gap_tolerance_bits = r.u64();
  entry.point.max_nodes = r.i64();
  entry.point.dp_buckets = r.i64();
  entry.point.fork_grid = r.i64();
  entry.point.polish = r.i64();
  auto result = get_result(r);
  if (!result.is_ok()) return result.status();
  if (!r.ok() || !r.at_end() || entry.blob_id == 0) {
    return common::Status::invalid("corrupt entry record payload");
  }
  entry.result = std::make_shared<const common::Result<api::SolveReport>>(
      std::move(result).take());
  return entry;
}

std::size_t result_footprint_bytes(const common::Result<api::SolveReport>& result) {
  std::size_t bytes = sizeof(common::Result<api::SolveReport>);
  if (!result.is_ok()) return bytes + result.status().message().size();
  const api::SolveReport& report = result.value();
  bytes += report.solver.size();
  for (int t = 0; t < report.schedule.num_tasks(); ++t) {
    const auto& decision = report.schedule.at(t);
    bytes += sizeof(sched::TaskDecision);
    for (const auto& exec : decision.executions) {
      bytes += sizeof(sched::Execution) + exec.profile.size() * sizeof(model::SpeedInterval);
    }
  }
  return bytes;
}

}  // namespace easched::store
