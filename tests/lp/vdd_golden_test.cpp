// Frozen simplex results on a seeded corpus of VDD-HOPPING LPs (the
// formulation of bicrit/vdd_lp.hpp): for every solve the status, the pivot
// count, the objective and every primal value must reproduce bit for bit.
// The pivot kernel may only change how much of the tableau it touches, not
// a single arithmetic result, so any drift here is a kernel bug.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "lp/simplex.hpp"
#include "model/speed_model.hpp"
#include "sched/list_scheduler.hpp"

namespace easched::lp {
namespace {

// The VDD-HOPPING BI-CRIT LP exactly as bicrit::solve_vdd_lp builds it:
// per task one alpha per level then one start time; work rows, augmented
// precedence rows, deadline rows.
LpModel vdd_model(const graph::Dag& dag, const sched::Mapping& mapping, double deadline,
                  const std::vector<double>& levels) {
  const int n = dag.num_tasks();
  const int m = static_cast<int>(levels.size());
  const graph::Dag aug = mapping.augmented_graph(dag);
  LpModel model;
  std::vector<int> alpha(static_cast<std::size_t>(n * m));
  std::vector<int> start(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int s = 0; s < m; ++s) {
      const double f = levels[static_cast<std::size_t>(s)];
      alpha[static_cast<std::size_t>(i * m + s)] = model.add_variable(0.0, kInf, f * f * f);
    }
    start[static_cast<std::size_t>(i)] = model.add_variable(0.0, kInf, 0.0);
  }
  for (int i = 0; i < n; ++i) {
    std::vector<LinearTerm> terms;
    for (int s = 0; s < m; ++s) {
      terms.push_back({alpha[static_cast<std::size_t>(i * m + s)],
                       levels[static_cast<std::size_t>(s)]});
    }
    model.add_constraint(std::move(terms), Sense::kEqual, dag.weight(i));
  }
  auto duration_terms = [&](int i, std::vector<LinearTerm>& terms) {
    for (int s = 0; s < m; ++s) terms.push_back({alpha[static_cast<std::size_t>(i * m + s)], 1.0});
  };
  for (int u = 0; u < n; ++u) {
    for (int v : aug.successors(u)) {
      std::vector<LinearTerm> terms{{start[static_cast<std::size_t>(u)], 1.0}};
      duration_terms(u, terms);
      terms.push_back({start[static_cast<std::size_t>(v)], -1.0});
      model.add_constraint(std::move(terms), Sense::kLessEqual, 0.0);
    }
  }
  for (int i = 0; i < n; ++i) {
    std::vector<LinearTerm> terms{{start[static_cast<std::size_t>(i)], 1.0}};
    duration_terms(i, terms);
    model.add_constraint(std::move(terms), Sense::kLessEqual, deadline);
  }
  return model;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// FNV-1a over the bit patterns of x: one hex word that changes with any
// bit of any primal value.
std::uint64_t digest(const std::vector<double>& x) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : x) {
    std::uint64_t b = bits(v);
    for (int k = 0; k < 8; ++k) {
      h ^= b & 0xffU;
      h *= 0x100000001b3ULL;
      b >>= 8;
    }
  }
  return h;
}

// One line per solve: instance, status, pivots, objective bits, x digest.
std::vector<std::string> solve_corpus() {
  const auto levels = model::xscale_levels();
  std::vector<std::string> lines;
  common::Rng rng(20120521);
  for (int n : {12, 24, 36, 48}) {
    for (int shape = 0; shape < 2; ++shape) {
      const graph::Dag dag =
          shape == 0 ? graph::make_random_dag(n, 0.15, {1.0, 5.0}, rng)
                     : graph::make_layered(4, n / 4, 0.3, {1.0, 5.0}, rng);
      const auto mapping = sched::list_schedule(dag, 4, sched::PriorityPolicy::kCriticalPath);
      std::vector<double> dmax(static_cast<std::size_t>(n));
      for (int t = 0; t < n; ++t) dmax[static_cast<std::size_t>(t)] = dag.weight(t) / levels.back();
      const double base = graph::time_analysis(mapping.augmented_graph(dag), dmax, 0.0).makespan;
      // From infeasible (0.95) through the degenerate all-fmax point (1.0)
      // to loose enough that every task runs at the slowest level (8.0).
      for (double factor : {0.95, 1.0, 1.2, 1.6, 2.5, 4.0, 8.0}) {
        const auto sol = solve(vdd_model(dag, mapping, base * factor, levels));
        char line[160];
        std::snprintf(line, sizeof line, "n%d s%d x%.2f %s it%d obj %016" PRIx64 " x %016" PRIx64,
                      n, shape, factor, to_string(sol.status), sol.iterations,
                      bits(sol.objective), digest(sol.x));
        lines.emplace_back(line);
      }
    }
  }
  return lines;
}

const char* const kGolden[] = {
    "n12 s0 x0.95 INFEASIBLE it24 obj 0000000000000000 x cbf29ce484222325",
    "n12 s0 x1.00 OPTIMAL it42 obj 403887aa1a199127 x 81c27ea6f48d4fd0",
    "n12 s0 x1.20 OPTIMAL it49 obj 4031409cf177166a x 1345f278a82505f5",
    "n12 s0 x1.60 OPTIMAL it49 obj 402418d0506e5b66 x ace60436a24a0e4d",
    "n12 s0 x2.50 OPTIMAL it56 obj 4010d2ae7224e338 x aae7e07b4081c394",
    "n12 s0 x4.00 OPTIMAL it60 obj 4003bba05c14542b x 5946f3b0652990b1",
    "n12 s0 x8.00 OPTIMAL it60 obj 3feb51b897662934 x 747fe1575256a202",
    "n12 s1 x0.95 INFEASIBLE it22 obj 0000000000000000 x cbf29ce484222325",
    "n12 s1 x1.00 OPTIMAL it44 obj 4033afea6c70caa8 x fb80440171384888",
    "n12 s1 x1.20 OPTIMAL it45 obj 402bed4b5819a0b5 x d6d7935a37ec3f74",
    "n12 s1 x1.60 OPTIMAL it48 obj 401fef8766e2efdb x 81aadf18eed2c8a5",
    "n12 s1 x2.50 OPTIMAL it55 obj 400cd221e2793974 x f98fef52cf68ab5c",
    "n12 s1 x4.00 OPTIMAL it58 obj 4000dd383e256ccb x 913b23033ff73b2d",
    "n12 s1 x8.00 OPTIMAL it59 obj 3fe5f708cd8d2f9e x 3328bf1bec176831",
    "n24 s0 x0.95 INFEASIBLE it68 obj 0000000000000000 x cbf29ce484222325",
    "n24 s0 x1.00 OPTIMAL it76 obj 40504b4b296076fd x f93ab2508dbbed02",
    "n24 s0 x1.20 OPTIMAL it110 obj 4046f812b3f0f990 x 27fc4e6f84ad8848",
    "n24 s0 x1.60 OPTIMAL it103 obj 403a0eeb7e32b661 x c0e119cd4dbaeffc",
    "n24 s0 x2.50 OPTIMAL it129 obj 402512e0f045549a x 53dbf7526fdc6b2e",
    "n24 s0 x4.00 OPTIMAL it150 obj 401ce33ef2e584ae x 371ae1b5f559dfdc",
    "n24 s0 x8.00 OPTIMAL it147 obj 3ff7d824d137f664 x cb6f89e999866c27",
    "n24 s1 x0.95 INFEASIBLE it62 obj 0000000000000000 x cbf29ce484222325",
    "n24 s1 x1.00 OPTIMAL it87 obj 404e180cfc989129 x 32c0ee17ead583b0",
    "n24 s1 x1.20 OPTIMAL it128 obj 404510af176d020f x c844cf423061c875",
    "n24 s1 x1.60 OPTIMAL it112 obj 4038036c8be23833 x 0b90fcdefdf9c196",
    "n24 s1 x2.50 OPTIMAL it131 obj 4024c2bbd6a03cd3 x 216b3ea9418a1274",
    "n24 s1 x4.00 OPTIMAL it147 obj 401ac76cbd781fc3 x 62cf28afbaa56ff3",
    "n24 s1 x8.00 OPTIMAL it144 obj 3ff8876a9a8e9441 x c6054f6387f328a6",
    "n36 s0 x0.95 INFEASIBLE it127 obj 0000000000000000 x cbf29ce484222325",
    "n36 s0 x1.00 OPTIMAL it150 obj 405b2ff212c58bba x 6c60870a533fe843",
    "n36 s0 x1.20 OPTIMAL it239 obj 405300ed652b491c x 140dfa5f2336e67b",
    "n36 s0 x1.60 OPTIMAL it200 obj 40458787b99811f4 x 22ab4cf56ea58485",
    "n36 s0 x2.50 OPTIMAL it249 obj 4031d18545df3870 x 7d4e37906b1cc4b9",
    "n36 s0 x4.00 OPTIMAL it268 obj 40282fe3b4820e43 x b7490409d8416cc4",
    "n36 s0 x8.00 OPTIMAL it267 obj 40044ef459fd2f78 x 4e102ff1d6582fdd",
    "n36 s1 x0.95 INFEASIBLE it116 obj 0000000000000000 x cbf29ce484222325",
    "n36 s1 x1.00 OPTIMAL it129 obj 405b4cfe6c0fd18f x 94a625335b1618c3",
    "n36 s1 x1.20 OPTIMAL it185 obj 40532e6aad7351a2 x 29bd9470c362c0b7",
    "n36 s1 x1.60 OPTIMAL it176 obj 4045c57b7ea7ea26 x d358572c5c983cad",
    "n36 s1 x2.50 OPTIMAL it206 obj 4031ee881aec558c x edc370b3d4ba3a12",
    "n36 s1 x4.00 OPTIMAL it236 obj 40284d63b9f7d7a9 x 2e76fa1dc4d68a8b",
    "n36 s1 x8.00 OPTIMAL it231 obj 40047621883292c6 x 5034af2ab81c1924",
    "n48 s0 x0.95 INFEASIBLE it211 obj 0000000000000000 x cbf29ce484222325",
    "n48 s0 x1.00 OPTIMAL it219 obj 4062932b10db60cf x 438282c69a5188ee",
    "n48 s0 x1.20 OPTIMAL it355 obj 405a2d5cd8629b1f x 7c66d848ae2a31c8",
    "n48 s0 x1.60 OPTIMAL it292 obj 404db17f0b2e7257 x a5a3ad0699e9016d",
    "n48 s0 x2.50 OPTIMAL it327 obj 4038018b30a4eaed x 62b162b2e7512ec5",
    "n48 s0 x4.00 OPTIMAL it358 obj 4030765fce3b1075 x 2c18b948f1459546",
    "n48 s0 x8.00 OPTIMAL it365 obj 400b26b7612797b0 x 99d4bc065da02d02",
    "n48 s1 x0.95 INFEASIBLE it181 obj 0000000000000000 x cbf29ce484222325",
    "n48 s1 x1.00 OPTIMAL it196 obj 40627fb2ef83927c x 4e467d4ce69ed84e",
    "n48 s1 x1.20 OPTIMAL it289 obj 4059f8c2d2949bb8 x 6575b5e034b5ad6d",
    "n48 s1 x1.60 OPTIMAL it263 obj 404d6f1db5c632a0 x 2a174262abfd40c1",
    "n48 s1 x2.50 OPTIMAL it321 obj 4037fd911084d6bc x 6c4fa6fe297efb94",
    "n48 s1 x4.00 OPTIMAL it347 obj 40306900f7f61857 x 54b95fab85d0483c",
    "n48 s1 x8.00 OPTIMAL it344 obj 400b2f628eee3e5c x 587ebd82cb65899b",
};

TEST(VddGolden, SimplexResultsAreBitIdentical) {
  const auto lines = solve_corpus();
  ASSERT_EQ(lines.size(), std::size(kGolden)) << [&] {
    std::string all;
    for (const auto& l : lines) all += "    \"" + l + "\",\n";
    return all;
  }();
  for (std::size_t i = 0; i < lines.size(); ++i) EXPECT_EQ(lines[i], kGolden[i]) << i;
}

}  // namespace
}  // namespace easched::lp
