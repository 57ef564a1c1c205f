#include "bicrit/continuous_dag.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bicrit/closed_form.hpp"
#include "common/rng.hpp"
#include "core/corpus.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validator.hpp"

namespace easched::bicrit {
namespace {

using model::SpeedModel;

sched::ValidationInput make_input(const SpeedModel& sm, double deadline) {
  sched::ValidationInput in;
  in.speed_model = &sm;
  in.deadline = deadline;
  return in;
}

TEST(ContinuousDag, ChainMatchesClosedForm) {
  const auto dag = graph::make_chain({2.0, 3.0, 5.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0, 1, 2});
  const auto speeds = SpeedModel::continuous(0.1, 10.0);
  auto ipm = solve_continuous(dag, mapping, 4.0, speeds);
  auto cf = solve_chain(dag, 4.0, speeds);
  ASSERT_TRUE(ipm.is_ok()) << ipm.status().to_string();
  ASSERT_TRUE(cf.is_ok());
  EXPECT_NEAR(ipm.value().energy, cf.value().energy, 1e-5 * cf.value().energy);
}

TEST(ContinuousDag, ForkMatchesPaperTheorem) {
  const auto dag = graph::make_fork({2.0, 1.0, 2.0, 3.0});
  const auto mapping = sched::Mapping::one_task_per_processor(dag);
  const auto speeds = SpeedModel::continuous(0.01, 10.0);
  auto ipm = solve_continuous(dag, mapping, 10.0, speeds);
  auto cf = solve_fork(dag, 10.0, speeds);
  ASSERT_TRUE(ipm.is_ok());
  ASSERT_TRUE(cf.is_ok());
  EXPECT_NEAR(ipm.value().energy, cf.value().energy, 1e-5 * cf.value().energy);
}

TEST(ContinuousDag, SeriesParallelMatchesClosedForm) {
  common::Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const auto dag = graph::make_random_series_parallel(10, {1.0, 3.0}, rng);
    const auto mapping = sched::Mapping::one_task_per_processor(dag);
    const double D = 25.0;
    const auto speeds = SpeedModel::continuous(1e-4, 1e4);
    auto ipm = solve_continuous(dag, mapping, D, speeds);
    auto cf = solve_series_parallel(dag, D, speeds);
    ASSERT_TRUE(ipm.is_ok()) << trial << ": " << ipm.status().to_string();
    ASSERT_TRUE(cf.is_ok()) << trial;
    EXPECT_NEAR(ipm.value().energy, cf.value().energy, 2e-4 * cf.value().energy)
        << "trial " << trial;
  }
}

TEST(ContinuousDag, SchedulesAreAlwaysFeasible) {
  common::Rng rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    const auto dag = graph::make_layered(3, 4, 0.4, {1.0, 5.0}, rng);
    const auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
    const auto speeds = SpeedModel::continuous(0.2, 2.0);
    // Deadline with 1.6x headroom over the all-fmax makespan.
    std::vector<double> dmax(static_cast<std::size_t>(dag.num_tasks()));
    for (int t = 0; t < dag.num_tasks(); ++t) {
      dmax[static_cast<std::size_t>(t)] = dag.weight(t) / speeds.fmax();
    }
    const double ms = graph::time_analysis(mapping.augmented_graph(dag), dmax, 0.0).makespan;
    const double D = ms * 1.6;
    auto r = solve_continuous(dag, mapping, D, speeds);
    ASSERT_TRUE(r.is_ok()) << trial << ": " << r.status().to_string();
    EXPECT_TRUE(
        sched::validate_schedule(dag, mapping, r.value().schedule, make_input(speeds, D))
            .is_ok())
        << "trial " << trial;
  }
}

TEST(ContinuousDag, InfeasibleWhenDeadlineBelowFmaxMakespan) {
  const auto dag = graph::make_chain({4.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0});
  EXPECT_FALSE(
      solve_continuous(dag, mapping, 1.0, SpeedModel::continuous(0.5, 2.0)).is_ok());
}

TEST(ContinuousDag, AllFminWhenDeadlineIsLoose) {
  const auto dag = graph::make_chain({1.0, 1.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0, 1});
  const auto speeds = SpeedModel::continuous(0.5, 2.0);
  auto r = solve_continuous(dag, mapping, 100.0, speeds);
  ASSERT_TRUE(r.is_ok());
  for (int t = 0; t < 2; ++t) {
    EXPECT_DOUBLE_EQ(r.value().schedule.at(t).executions.front().speed, 0.5);
  }
}

TEST(ContinuousDag, TightDeadlineReturnsAllFmax) {
  const auto dag = graph::make_chain({2.0, 2.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0, 1});
  const auto speeds = SpeedModel::continuous(0.5, 2.0);
  auto r = solve_continuous(dag, mapping, 2.0, speeds);  // exactly fmax makespan
  ASSERT_TRUE(r.is_ok());
  for (int t = 0; t < 2; ++t) {
    EXPECT_DOUBLE_EQ(r.value().schedule.at(t).executions.front().speed, 2.0);
  }
}

TEST(ContinuousDag, MappingConstraintsRaiseEnergy) {
  // The same fork on 3 processors vs. serialised on 1: the 1-proc mapping
  // forces more total speed, hence at least as much energy.
  const auto dag = graph::make_fork({1.0, 2.0, 2.0});
  const auto speeds = SpeedModel::continuous(0.01, 10.0);
  const double D = 4.0;
  const auto par = sched::Mapping::one_task_per_processor(dag);
  auto mapping1 = sched::Mapping(1, 3);
  mapping1.assign(0, 0);
  mapping1.assign(1, 0);
  mapping1.assign(2, 0);
  auto r_par = solve_continuous(dag, par, D, speeds);
  auto r_one = solve_continuous(dag, mapping1, D, speeds);
  ASSERT_TRUE(r_par.is_ok());
  ASSERT_TRUE(r_one.is_ok());
  EXPECT_GE(r_one.value().energy, r_par.value().energy - 1e-9);
}

TEST(ContinuousDag, EnergyDecreasesWithDeadline) {
  common::Rng rng(5);
  const auto dag = graph::make_random_dag(12, 0.25, {1.0, 4.0}, rng);
  const auto mapping = sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
  const auto speeds = SpeedModel::continuous(0.05, 2.0);
  std::vector<double> dmax(static_cast<std::size_t>(dag.num_tasks()));
  for (int t = 0; t < dag.num_tasks(); ++t) {
    dmax[static_cast<std::size_t>(t)] = dag.weight(t) / speeds.fmax();
  }
  const double base = graph::time_analysis(mapping.augmented_graph(dag), dmax, 0.0).makespan;
  double prev = 1e300;
  for (double factor : {1.1, 1.4, 2.0, 3.0}) {
    auto r = solve_continuous(dag, mapping, base * factor, speeds);
    ASSERT_TRUE(r.is_ok()) << factor;
    EXPECT_LE(r.value().energy, prev * (1.0 + 1e-9)) << factor;
    prev = r.value().energy;
  }
}

TEST(ContinuousDag, GapCertificateIsSmall) {
  const auto dag = graph::make_chain({1.0, 2.0, 3.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0, 1, 2});
  auto r = solve_continuous(dag, mapping, 4.0, SpeedModel::continuous(0.1, 10.0));
  ASSERT_TRUE(r.is_ok());
  EXPECT_LT(r.value().gap_bound, 1e-6);
}

TEST(ContinuousDag, RejectsZeroWeights) {
  graph::Dag dag;
  dag.add_task(0.0);
  auto mapping = sched::Mapping(1, 1);
  mapping.assign(0, 0);
  EXPECT_FALSE(solve_continuous(dag, mapping, 1.0, SpeedModel::continuous(0.1, 1.0)).is_ok());
}

TEST(ContinuousDag, RejectsDiscreteModel) {
  const auto dag = graph::make_chain({1.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0});
  EXPECT_FALSE(solve_continuous(dag, mapping, 10.0, SpeedModel::discrete({1.0})).is_ok());
}

// Energies of a seeded corpus (8 families x {16, 32} tasks x 4 deadlines),
// frozen as exact hex. A change to the barrier's stopping rule may move
// them by rounding only: every energy must hold to 1e-12 relative.
const double kCorpusEnergies[] = {
    0x1.209ba391bc217p+6,
    0x1.788e79c4f69d3p+5,
    0x1.3e30b64151b5p+4,
    0x1.3e30b641588d6p+2,
    0x1.ef2c31a5c27f4p+4,
    0x1.33d8c2e63b5a1p+4,
    0x1.03fd76cbfc717p+3,
    0x1.040d4a0d56311p+1,
    0x1.13151adbece9dp+5,
    0x1.4b399419a70b9p+4,
    0x1.17e292e79d7b6p+3,
    0x1.18230ec4dd5bdp+1,
    0x1.0b591949f322bp+6,
    0x1.476bc4af4cb86p+5,
    0x1.13c75cbf9b1bcp+4,
    0x1.13c75cbfa329cp+2,
    0x1.afddc1d72ba0cp+5,
    0x1.1929fd6b5b2e1p+5,
    0x1.db2acd8f0b95cp+3,
    0x1.db2acd8f1d4a5p+1,
    0x1.0680985d1a52dp+6,
    0x1.567ee20f70d2fp+5,
    0x1.2168a7fb222abp+4,
    0x1.2168a7fb2a384p+2,
    0x1.444ee98ee3826p+5,
    0x1.a722cb3d774e9p+4,
    0x1.658cc2c7278e9p+3,
    0x1.658cc2c73c80bp+1,
    0x1.c29b49a5364e4p+5,
    0x1.25f5f79e25dbbp+5,
    0x1.f0cb3464e243ep+3,
    0x1.f0cb3464f4c28p+1,
    0x1.248fb1b2f7202p+7,
    0x1.7db6f02e6d374p+6,
    0x1.428c80b698748p+5,
    0x1.428c80b69f1acp+3,
    0x1.01c8c026ab007p+6,
    0x1.4602070234aafp+5,
    0x1.0dffa078c105ap+4,
    0x1.0e71303f3c302p+2,
    0x1.137af518f9c8p+6,
    0x1.35f06a2ebe08dp+5,
    0x1.fa083912fede2p+3,
    0x1.fab3c71041f18p+1,
    0x1.2b4e8da2d24d3p+7,
    0x1.6fc5dbefb19cep+6,
    0x1.352664ed493e6p+5,
    0x1.352664ed507ddp+3,
    0x1.feacb0b58ca8ep+6,
    0x1.3ca1f55b73a71p+6,
    0x1.0aebdd1859642p+5,
    0x1.0aebdd1860d74p+3,
    0x1.7f2c4bd2217f4p+6,
    0x1.f26cd59d44f84p+5,
    0x1.a52b53396258bp+4,
    0x1.a52b533971a5ap+2,
    0x1.04534b07e4b23p+7,
    0x1.53a7c091dfd64p+6,
    0x1.1f023b0aa122fp+5,
    0x1.1f023b0aa895cp+3,
    0x1.cbaf2461aeb71p+6,
    0x1.2be1f90f40e2p+6,
    0x1.facd41121c955p+4,
    0x1.facd41122e4cep+2,
};

TEST(ContinuousDag, SeededCorpusEnergiesHoldToRounding) {
  const auto speeds = SpeedModel::continuous(0.05, 1.0);
  std::vector<double> energies;
  for (int tasks : {16, 32}) {
    common::Rng rng(1207);
    core::CorpusOptions options;
    options.tasks = tasks;
    options.processors = 4;
    options.instances_per_family = 1;
    for (const auto& inst : core::standard_corpus(rng, options)) {
      for (double slack : {1.05, 1.3, 2.0, 4.0}) {
        const double D = core::deadline_with_slack(inst, speeds.fmax(), slack);
        auto r = solve_continuous(inst.dag, inst.mapping, D, speeds);
        ASSERT_TRUE(r.is_ok()) << inst.name << " " << slack << ": " << r.status().to_string();
        energies.push_back(r.value().energy);
      }
    }
  }
  ASSERT_EQ(energies.size(), std::size(kCorpusEnergies)) << [&] {
    std::string all;
    char buf[64];
    for (double e : energies) {
      std::snprintf(buf, sizeof buf, "    %a,\n", e);
      all += buf;
    }
    return all;
  }();
  for (std::size_t i = 0; i < energies.size(); ++i) {
    EXPECT_NEAR(energies[i], kCorpusEnergies[i], 1e-12 * kCorpusEnergies[i]) << i;
  }
}

// Newton steps the barrier spends on one fixed mapped random DAG over a
// ladder of deadlines, all strictly between the fmax and fmin makespans.
int newton_steps_on_fixed_dag(int tasks, std::uint64_t seed) {
  common::Rng rng(seed);
  const auto dag = graph::make_random_dag(tasks, 4.0 / tasks, {1.0, 5.0}, rng);
  const auto mapping = sched::list_schedule(dag, 4, sched::PriorityPolicy::kCriticalPath);
  const auto speeds = SpeedModel::continuous(0.05, 1.0);
  std::vector<double> dmax(static_cast<std::size_t>(tasks));
  for (int t = 0; t < tasks; ++t) dmax[static_cast<std::size_t>(t)] = dag.weight(t);
  const double base = graph::time_analysis(mapping.augmented_graph(dag), dmax, 0.0).makespan;
  int steps = 0;
  for (double factor : {1.1, 1.5, 2.5, 6.0}) {
    auto r = solve_continuous(dag, mapping, base * factor, speeds);
    EXPECT_TRUE(r.is_ok()) << factor << ": " << r.status().to_string();
    if (r.is_ok()) steps += r.value().newton_steps;
  }
  return steps;
}

// Before the barrier stopped centering at the rounding floor these two
// ladders took 987 and 1236 Newton steps; most of them moved x only within
// rounding. The budget is half of that.
TEST(ContinuousDag, NewtonStepBudget) {
  EXPECT_LE(newton_steps_on_fixed_dag(16, 16), 987 / 2);
  EXPECT_LE(newton_steps_on_fixed_dag(64, 64), 1236 / 2);
}

}  // namespace
}  // namespace easched::bicrit
