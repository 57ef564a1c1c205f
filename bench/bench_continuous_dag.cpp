// E3 (claim C2): the convex-program solver on general mapped DAGs —
// energy/deadline trade-off curves per DAG class. Expected shape:
// E(D) decreasing, asymptotically E*D^2 constant while no fmin/fmax bound
// binds (the W^3/D^2 law), flattening to the all-fmin energy for loose D.
//
// With --json-out FILE the median Newton steps per solve and the wall ms
// per solve (median and interquartile range over the corpus solves) are
// written as JSON for scripts/bench_snapshot.sh.

#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "bicrit/continuous_dag.hpp"
#include "common/stats.hpp"
#include "core/corpus.hpp"
#include "sched/list_scheduler.hpp"

int main(int argc, char** argv) {
  using namespace easched;
  bench::banner("E3 continuous DAG solver",
                "C2: BI-CRIT on general DAGs is a convex program (GP equivalent)",
                "energy vs deadline per DAG family (interior point on the mapped graph)");

  const auto corpus = bench::seeded_corpus(argc, argv, 3, /*tasks=*/20,
                                           /*processors=*/4,
                                           /*instances_per_family=*/1);
  const auto speeds = model::SpeedModel::continuous(0.05, 1.0);

  common::Table table({"family", "n", "slack", "deadline", "energy", "E*D^2", "newton",
                       "time_ms"});
  std::vector<double> steps;
  std::vector<double> solve_ms;
  bench::for_each_slack(
      corpus, speeds.fmax(), {1.1, 1.5, 2.0, 3.0, 6.0, 15.0},
      [&](const core::Instance& inst, double slack, double D) {
        bench::Stopwatch sw;
        auto r = bicrit::solve_continuous(inst.dag, inst.mapping, D, speeds);
        const double ms = sw.ms();
        if (!r.is_ok()) {
          std::cout << inst.name << " slack " << slack << ": " << r.status().to_string()
                    << "\n";
          return;
        }
        table.add_row({inst.name, common::format_int(inst.dag.num_tasks()),
                       common::format_fixed(slack, 1), common::format_g(D),
                       common::format_g(r.value().energy),
                       common::format_g(r.value().energy * D * D),
                       common::format_int(r.value().newton_steps),
                       common::format_fixed(ms, 2)});
        steps.push_back(r.value().newton_steps);
        solve_ms.push_back(ms);
      });
  table.print(std::cout);
  if (const char* path = bench::json_out_path(argc, argv)) {
    std::ofstream out(path);
    out << "{\n"
        << "  \"solves\": " << solve_ms.size() << ",\n"
        << "  \"newton_steps_median\": " << common::format_g(common::percentile(steps, 0.5))
        << ",\n"
        << "  \"ms_per_solve_median\": "
        << common::format_g(common::percentile(solve_ms, 0.5)) << ",\n"
        << "  \"ms_per_solve_iqr\": "
        << common::format_g(common::percentile(solve_ms, 0.75) -
                            common::percentile(solve_ms, 0.25))
        << "\n"
        << "}\n";
  }
  std::cout << "\nShapes: energy strictly decreasing in slack; E*D^2 roughly constant in\n"
               "the unclamped regime, then energy flattens at the all-fmin floor.\n";
  return 0;
}
