// Instance digests are the persistent identity of a solve: store blobs and
// cache entries are filed under them across processes. The exact bytes of
// api::instance_bytes and the two digest lanes are frozen here (golden
// hex) for one BI-CRIT and one namespaced TRI-CRIT request, so a codec
// change that silently re-keys every existing store fails this test.

#include "api/digest.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/problem.hpp"
#include "graph/dag.hpp"
#include "model/reliability.hpp"
#include "sched/mapping.hpp"

namespace easched::api {
namespace {

std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  return out;
}

std::string hex(const InstanceDigest& digest) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(digest.hi),
                static_cast<unsigned long long>(digest.lo));
  return buf;
}

/// Two tasks (weights 1 and 2), one edge, both on one processor.
graph::Dag two_task_dag() {
  graph::Dag dag;
  const auto a = dag.add_task(1.0, "a");
  const auto b = dag.add_task(2.0, "b");
  dag.add_edge(a, b);
  return dag;
}

TEST(InstanceDigestGolden, BiCritRequest) {
  auto dag = two_task_dag();
  auto mapping = sched::Mapping::single_processor(dag, {0, 1});
  const core::BiCritProblem problem(std::move(dag), std::move(mapping),
                                    model::SpeedModel::continuous(0.25, 1.0), 5.0);
  const SolveRequest request(problem, "continuous-ipm");
  const std::string bytes = instance_bytes(request);
  EXPECT_EQ(hex(bytes),
            "50"  // tag 'P'
            "0000000000000000"  // problem kind BI-CRIT
            "47"  // tag 'G'
            "0200000000000000"  // task count 2
            "000000000000f03f"  // weight 1.0
            "0000000000000040"  // weight 2.0
            "45"  // tag 'E'
            "0100000000000000"  // edge count 1
            "0000000000000000"  // edge from 0
            "0100000000000000"  // edge to 1
            "4d"  // tag 'M'
            "0100000000000000"  // processor count 1
            "0200000000000000"  // order length 2
            "0000000000000000"  // task 0
            "0100000000000000"  // task 1
            "53"  // tag 'S'
            "0000000000000000"  // kind continuous
            "000000000000d03f"  // fmin 0.25
            "000000000000f03f"  // fmax 1.0
            "0000000000000000"  // delta 0
            "0000000000000000");  // level count 0
  EXPECT_EQ(hex(digest_bytes(bytes)), "82a3951272d945199a38d235335c7666");
  EXPECT_EQ(instance_digest(request), digest_bytes(bytes));
}

TEST(InstanceDigestGolden, NamespacedTriCritRequest) {
  auto dag = two_task_dag();
  auto mapping = sched::Mapping::single_processor(dag, {0, 1});
  const core::TriCritProblem problem(std::move(dag), std::move(mapping),
                                     model::SpeedModel::vdd_hopping({0.5, 1.0}),
                                     model::ReliabilityModel(0.5, 3.0, 0.5, 1.0, 0.75),
                                     6.0);
  SolveOptions options;
  options.cache_namespace = "acme";
  const SolveRequest request(problem, "", options);
  const std::string bytes = instance_bytes(request);
  EXPECT_EQ(hex(bytes),
            "54"  // tag 'T'
            "0400000000000000"  // namespace length 4
            "61636d65"  // "acme"
            "50"  // tag 'P'
            "0100000000000000"  // problem kind TRI-CRIT
            "47"  // tag 'G'
            "0200000000000000"  // task count 2
            "000000000000f03f"  // weight 1.0
            "0000000000000040"  // weight 2.0
            "45"  // tag 'E'
            "0100000000000000"  // edge count 1
            "0000000000000000"  // edge from 0
            "0100000000000000"  // edge to 1
            "4d"  // tag 'M'
            "0100000000000000"  // processor count 1
            "0200000000000000"  // order length 2
            "0000000000000000"  // task 0
            "0100000000000000"  // task 1
            "53"  // tag 'S'
            "0200000000000000"  // kind VDD-HOPPING
            "000000000000e03f"  // fmin 0.5
            "000000000000f03f"  // fmax 1.0
            "0000000000000000"  // delta 0
            "0200000000000000"  // level count 2
            "000000000000e03f"  // level 0.5
            "000000000000f03f"  // level 1.0
            "52"  // tag 'R'
            "000000000000e03f"  // lambda0 0.5
            "0000000000000840"  // sensitivity 3.0
            "000000000000e03f"  // fmin 0.5
            "000000000000f03f");  // fmax 1.0
  EXPECT_EQ(hex(digest_bytes(bytes)), "641d14367735df1c38a26f21a665fcb0");
  EXPECT_EQ(instance_digest(request), digest_bytes(bytes));
}

}  // namespace
}  // namespace easched::api
