#pragma once
// Request digests — the identity layer under solve memoization.
//
// A SolveRequest splits into two parts with very different lifetimes:
//
//  * the *instance* (problem kind, graph weights and edges, mapping
//    orders, speed model, reliability statics) — large, and constant
//    across the hundreds of probes of one frontier sweep;
//  * the *point* (effective deadline, reliability threshold frel, solver
//    name, option knobs) — a handful of scalars that change per probe.
//
// This header serialises the instance part once into an exact canonical
// byte string (`instance_bytes`) and condenses it into a 128-bit
// `InstanceDigest`. Caches key repeat traffic on the digest and fall back
// to the byte string on the (astronomically rare) digest collision, so a
// hit can never alias two instances a solver could tell apart — see
// frontier/cache.hpp for the interning scheme that makes per-probe
// lookups O(1) in the instance size.
//
// The serialisation is built from the fixed-width little-endian fields of
// common/bytes.hpp (doubles as IEEE bit patterns, ints as int64, strings
// with a u64 length prefix), each section preceded by a one-byte tag that
// keeps the encoding prefix-free: two different instances can never
// concatenate to the same string. Task names are excluded — no algorithm
// reads them.

#include <cstdint>
#include <string>

#include "api/solver.hpp"

namespace easched::api {

/// 128-bit condensation of an instance byte string. Equality of digests
/// is necessary but not sufficient for equality of instances; exactness
/// is restored by comparing the byte strings on digest collision.
struct InstanceDigest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const InstanceDigest& a, const InstanceDigest& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const InstanceDigest& a, const InstanceDigest& b) noexcept {
    return !(a == b);
  }
};

/// splitmix64 finaliser: full-avalanche 64-bit mixing. The one mixing
/// primitive shared by digest_bytes and the frontier cache's key hash —
/// keep them on the same constants so the two never drift apart.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Exact canonical serialisation of the instance part of `request`:
/// problem kind, DAG weights and edges, mapping orders, speed model, and
/// the reliability statics (lambda0, sensitivity, fmin, fmax) of a
/// TRI-CRIT problem. Deliberately excludes everything that varies per
/// sweep point: the effective deadline, frel, the solver name and the
/// solve options.
std::string instance_bytes(const SolveRequest& request);

/// 128-bit hash of an arbitrary byte string (used on instance_bytes).
/// Deterministic across processes and platforms, so digests can key
/// persistent caches.
InstanceDigest digest_bytes(const std::string& bytes);

/// digest_bytes(instance_bytes(request)) in one call — O(instance size);
/// compute it once per instance, not once per probe.
InstanceDigest instance_digest(const SolveRequest& request);

/// Appends the per-point suffix (effective deadline, frel for TRI-CRIT,
/// solver name, options) to `out`. instance_bytes + point suffix together
/// cover every field a solver can observe, so the concatenation is a
/// full-fidelity request fingerprint (frontier::canonical_fingerprint).
void append_point_bytes(std::string& out, const SolveRequest& request);

}  // namespace easched::api
