// E4 (claim C7): VDD-HOPPING BI-CRIT solved in polynomial time by an LP.
// Expected shape: CONTINUOUS <= VDD-LP <= DISCRETE-optimal on every
// instance ("VDD smooths out the discrete nature of the speeds"), with the
// VDD-continuous gap far smaller than the discrete-continuous gap; the
// neighbour-mix rounding of the continuous solution ~matches the LP.
//
// With --json-out FILE the sandwich check, the worst vdd/cont and
// disc/cont ratios, and the LP's median pivots and wall ms per solve
// (median and interquartile range) are written as JSON for
// scripts/bench_snapshot.sh.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "bicrit/continuous_dag.hpp"
#include "bicrit/discrete_exact.hpp"
#include "bicrit/vdd_lp.hpp"
#include "common/stats.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"

int main(int argc, char** argv) {
  using namespace easched;
  bench::banner("E4 VDD-HOPPING LP",
                "C7: VDD BI-CRIT in P via LP; sandwich CONT <= VDD <= DISCRETE",
                "XScale-like levels {0.15,0.4,0.6,0.8,1.0}; random mapped DAGs");

  common::Rng rng(bench::corpus_seed(argc, argv, 4));
  const auto levels = model::xscale_levels();
  const auto vdd = model::SpeedModel::vdd_hopping(levels);
  const auto disc = model::SpeedModel::discrete(levels);
  const auto cont = model::SpeedModel::continuous(levels.front(), levels.back());

  common::Table table({"instance", "slack", "E_cont", "E_vdd", "E_mix", "E_disc",
                       "vdd/cont", "disc/cont", "lp_iters"});
  int rows = 0;
  double max_vdd_over_cont = 0.0;
  double max_disc_over_cont = 0.0;
  bool sandwich_ok = true;
  std::vector<double> lp_pivots;
  std::vector<double> lp_ms;
  for (int trial = 0; trial < 4; ++trial) {
    const auto dag = graph::make_random_dag(9, 0.25, {1.0, 5.0}, rng);
    const auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
    const double base = bench::fmax_makespan(dag, mapping, levels.back());
    for (double slack : {1.3, 2.0, 3.5}) {
      const double D = base * slack;
      auto r_cont = bicrit::solve_continuous(dag, mapping, D, cont);
      bench::Stopwatch sw;
      auto r_vdd = bicrit::solve_vdd_lp(dag, mapping, D, vdd);
      const double vdd_ms = sw.ms();
      auto r_disc = bicrit::solve_discrete_bnb(dag, mapping, D, disc);
      if (!r_cont.is_ok() || !r_vdd.is_ok() || !r_disc.is_ok()) continue;
      auto r_mix = bicrit::vdd_from_continuous(dag, r_cont.value().durations, vdd);
      const double vdd_ratio = r_vdd.value().energy / r_cont.value().energy;
      const double disc_ratio = r_disc.value().energy / r_cont.value().energy;
      max_vdd_over_cont = std::max(max_vdd_over_cont, vdd_ratio);
      max_disc_over_cont = std::max(max_disc_over_cont, disc_ratio);
      // The sandwich with solver-tolerance headroom: CONT <= VDD <= DISC.
      if (vdd_ratio < 1.0 - 1e-6 || disc_ratio < vdd_ratio - 1e-6) sandwich_ok = false;
      lp_pivots.push_back(r_vdd.value().lp_iterations);
      lp_ms.push_back(vdd_ms);
      ++rows;
      table.add_row(
          {"rand" + std::to_string(trial), common::format_fixed(slack, 1),
           common::format_g(r_cont.value().energy), common::format_g(r_vdd.value().energy),
           common::format_g(r_mix.is_ok() ? r_mix.value().energy : -1.0),
           common::format_g(r_disc.value().energy),
           common::format_ratio(r_vdd.value().energy / r_cont.value().energy),
           common::format_ratio(r_disc.value().energy / r_cont.value().energy),
           common::format_int(r_vdd.value().lp_iterations)});
    }
  }
  table.print(std::cout);
  if (const char* path = bench::json_out_path(argc, argv)) {
    std::ofstream out(path);
    out << "{\n"
        << "  \"rows\": " << rows << ",\n"
        << "  \"max_vdd_over_cont\": " << common::format_g(max_vdd_over_cont) << ",\n"
        << "  \"max_disc_over_cont\": " << common::format_g(max_disc_over_cont) << ",\n"
        << "  \"lp_pivots_median\": " << common::format_g(common::percentile(lp_pivots, 0.5))
        << ",\n"
        << "  \"lp_ms_per_solve_median\": " << common::format_g(common::percentile(lp_ms, 0.5))
        << ",\n"
        << "  \"lp_ms_per_solve_iqr\": "
        << common::format_g(common::percentile(lp_ms, 0.75) - common::percentile(lp_ms, 0.25))
        << ",\n"
        << "  \"sandwich_ok\": " << (sandwich_ok ? "true" : "false") << "\n"
        << "}\n";
  }
  std::cout << "\nShapes: 1 <= vdd/cont <= disc/cont on every row; vdd/cont close to 1: "
            << (sandwich_ok ? "PASS" : "FAIL") << "\n";
  return sandwich_ok ? 0 : 1;
}
