#include "api/digest.hpp"

#include "common/bytes.hpp"
#include "core/problem.hpp"
#include "graph/dag.hpp"
#include "model/reliability.hpp"
#include "model/speed_model.hpp"
#include "sched/mapping.hpp"

namespace easched::api {
namespace {

using common::ByteWriter;

void append_dag(ByteWriter& w, const graph::Dag& dag) {
  w.u8('G');
  w.i64(dag.num_tasks());
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) w.f64(dag.weight(t));
  w.u8('E');
  w.i64(dag.num_edges());
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    for (graph::TaskId s : dag.successors(t)) {
      w.i64(t);
      w.i64(s);
    }
  }
}

void append_mapping(ByteWriter& w, const sched::Mapping& mapping) {
  w.u8('M');
  w.i64(mapping.num_processors());
  for (int p = 0; p < mapping.num_processors(); ++p) {
    const auto& order = mapping.order_on(p);
    w.i64(static_cast<std::int64_t>(order.size()));
    for (graph::TaskId t : order) w.i64(t);
  }
}

void append_speeds(ByteWriter& w, const model::SpeedModel& speeds) {
  w.u8('S');
  w.i64(static_cast<std::int64_t>(speeds.kind()));
  w.f64(speeds.fmin());
  w.f64(speeds.fmax());
  w.f64(speeds.delta());
  w.i64(speeds.num_levels());
  for (double level : speeds.levels()) w.f64(level);
}

// Reliability statics only: frel is a per-point quantity (the reliability
// sweep varies it while everything else stays fixed), so it lives in the
// point suffix, not the instance bytes.
void append_reliability_statics(ByteWriter& w, const model::ReliabilityModel& rel) {
  w.u8('R');
  w.f64(rel.lambda0());
  w.f64(rel.sensitivity());
  w.f64(rel.fmin());
  w.f64(rel.fmax());
}

void append_options(ByteWriter& w, const SolveOptions& opt) {
  // deadline_slack is deliberately absent: it is already folded into the
  // effective deadline, so (D=10, slack=1) and (D=5, slack=2) share a key.
  // start_durations is absent too: it is a warm-start hint the barrier
  // converges through, not an input that changes what problem is solved.
  w.u8('O');
  w.i64(opt.approx_K);
  w.f64(opt.gap_tolerance);
  w.i64(opt.max_nodes);
  w.i64(opt.dp_buckets);
  w.i64(opt.fork_grid);
  w.i64(opt.polish ? 1 : 0);
}

std::uint64_t rotl64(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

}  // namespace

std::string instance_bytes(const SolveRequest& request) {
  std::string out;
  out.reserve(256);
  ByteWriter w(out);
  // The namespace tag leads (when present) so tenants partition the byte
  // space before any structural field. An empty namespace appends nothing,
  // keeping the encoding byte-identical to pre-namespace stores; the 'T'
  // tag never collides with the 'P' every un-namespaced stream starts
  // with, so the two shapes stay prefix-free.
  if (!request.options.cache_namespace.empty()) {
    w.u8('T');
    w.str<std::uint64_t>(request.options.cache_namespace);
  }
  w.u8('P');
  w.i64(static_cast<std::int64_t>(request.kind()));
  append_dag(w, request.dag());
  append_mapping(w, request.mapping());
  append_speeds(w, request.speeds());
  if (request.kind() == ProblemKind::kTriCrit) {
    append_reliability_statics(w, request.tricrit->reliability);
  }
  return out;
}

InstanceDigest digest_bytes(const std::string& bytes) {
  // Two independently-mixed 64-bit lanes over little-endian 8-byte words,
  // zero-padded tail, length folded into the finaliser. Not cryptographic
  // — the interner's exact byte comparison backstops collisions — but
  // well-mixed enough that accidental collisions are ~2^-128 events.
  std::uint64_t lo = 0x9e3779b97f4a7c15ULL;
  std::uint64_t hi = 0xc2b2ae3d27d4eb4fULL;
  // Words are assembled explicitly little-endian so the digest of a given
  // byte string is identical on every host, as the cross-process contract
  // in the header promises.
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  while (i + 8 <= n) {
    const std::uint64_t w = common::load_le(bytes.data() + i, 8);
    lo = mix64(lo ^ w);
    hi = mix64(hi + rotl64(w, 31));
    i += 8;
  }
  if (i < n) {
    const std::uint64_t w = common::load_le(bytes.data() + i, n - i);
    lo = mix64(lo ^ w);
    hi = mix64(hi + rotl64(w, 31));
  }
  lo = mix64(lo ^ static_cast<std::uint64_t>(n));
  hi = mix64(hi ^ rotl64(static_cast<std::uint64_t>(n), 17) ^ lo);
  return InstanceDigest{hi, lo};
}

InstanceDigest instance_digest(const SolveRequest& request) {
  return digest_bytes(instance_bytes(request));
}

void append_point_bytes(std::string& out, const SolveRequest& request) {
  ByteWriter w(out);
  w.u8('D');
  w.f64(request.deadline());
  if (request.kind() == ProblemKind::kTriCrit) {
    w.u8('F');
    w.f64(request.tricrit->reliability.frel());
  }
  w.u8('N');
  w.str<std::uint64_t>(request.solver);
  append_options(w, request.options);
}

}  // namespace easched::api
