#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/rng.hpp"

namespace easched::lp {
namespace {

TEST(Simplex, Trivial1D) {
  // min x s.t. x >= 3  (via bound) -> x = 3.
  LpModel m;
  m.add_variable(3.0, kInf, 1.0);
  const auto sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << sol.detail;
  EXPECT_NEAR(sol.objective, 3.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
}

TEST(Simplex, ClassicTwoVariable) {
  // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18, x,y>=0 (Dantzig's example).
  // As minimisation: min -3x-5y; optimum (2,6), objective -36.
  LpModel m;
  const int x = m.add_variable(0.0, kInf, -3.0);
  const int y = m.add_variable(0.0, kInf, -5.0);
  m.add_constraint({{x, 1.0}}, Sense::kLessEqual, 4.0);
  m.add_constraint({{y, 2.0}}, Sense::kLessEqual, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::kLessEqual, 18.0);
  const auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -36.0, 1e-8);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // min x+y s.t. x+y = 2, x,y >= 0. Optimum 2.
  LpModel m;
  const int x = m.add_variable(0.0, kInf, 1.0);
  const int y = m.add_variable(0.0, kInf, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEqual, 2.0);
  const auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
}

TEST(Simplex, GreaterEqualNeedsPhase1) {
  // min 2x + 3y s.t. x + y >= 4, x - y <= 2, x,y >= 0. Optimum x=4? Check:
  // cheapest is x (cost 2): x=4,y=0 satisfies x-y=4>2 — violated. Try
  // boundary x-y=2, x+y=4 -> x=3,y=1 cost 9. Or x=2? x=0,y=4 cost 12.
  // Optimum 9 at (3, 1).
  LpModel m;
  const int x = m.add_variable(0.0, kInf, 2.0);
  const int y = m.add_variable(0.0, kInf, 3.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 4.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::kLessEqual, 2.0);
  const auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 9.0, 1e-8);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  LpModel m;
  const int x = m.add_variable(0.0, 1.0, 1.0);
  m.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 5.0);
  EXPECT_EQ(solve(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualitySystem) {
  LpModel m;
  const int x = m.add_variable(0.0, kInf, 0.0);
  m.add_constraint({{x, 1.0}}, Sense::kEqual, 1.0);
  m.add_constraint({{x, 1.0}}, Sense::kEqual, 2.0);
  EXPECT_EQ(solve(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpModel m;
  m.add_variable(0.0, kInf, -1.0);  // min -x, x unbounded above
  EXPECT_EQ(solve(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, FreeVariable) {
  // min |shift|: x free with cost 1 and constraint x >= -5: min at x=-5.
  LpModel m;
  const int x = m.add_variable(-kInf, kInf, 1.0);
  m.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, -5.0);
  const auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[0], -5.0, 1e-9);
}

TEST(Simplex, NegativeLowerBound) {
  // min x, x in [-2, 3] -> -2.
  LpModel m;
  m.add_variable(-2.0, 3.0, 1.0);
  const auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[0], -2.0, 1e-9);
}

TEST(Simplex, UpperBoundOnlyVariable) {
  // max x, x <= 7 with lower bound -inf... min -x, x in (-inf, 7] -> 7.
  LpModel m;
  m.add_variable(-kInf, 7.0, -1.0);
  const auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[0], 7.0, 1e-9);
}

TEST(Simplex, DegenerateVertexStillTerminates) {
  // Redundant constraints creating degeneracy.
  LpModel m;
  const int x = m.add_variable(0.0, kInf, -1.0);
  const int y = m.add_variable(0.0, kInf, -1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 1.0);
  m.add_constraint({{x, 2.0}, {y, 2.0}}, Sense::kLessEqual, 2.0);
  m.add_constraint({{x, 1.0}}, Sense::kLessEqual, 1.0);
  const auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -1.0, 1e-8);
}

TEST(Simplex, TransportationLikeProblem) {
  // Two suppliers (cap 10, 15) -> two consumers (demand 8, 12), costs
  // c11=2 c12=4 c21=5 c22=1. Optimal: x11=8, x22=12, cost 16+12=28.
  LpModel m;
  const int x11 = m.add_variable(0.0, kInf, 2.0);
  const int x12 = m.add_variable(0.0, kInf, 4.0);
  const int x21 = m.add_variable(0.0, kInf, 5.0);
  const int x22 = m.add_variable(0.0, kInf, 1.0);
  m.add_constraint({{x11, 1.0}, {x12, 1.0}}, Sense::kLessEqual, 10.0);
  m.add_constraint({{x21, 1.0}, {x22, 1.0}}, Sense::kLessEqual, 15.0);
  m.add_constraint({{x11, 1.0}, {x21, 1.0}}, Sense::kEqual, 8.0);
  m.add_constraint({{x12, 1.0}, {x22, 1.0}}, Sense::kEqual, 12.0);
  const auto sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 28.0, 1e-8);
}

TEST(Simplex, SolutionSatisfiesAllConstraints) {
  common::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    LpModel m;
    const int nv = 6, nc = 8;
    for (int j = 0; j < nv; ++j) m.add_variable(0.0, rng.uniform(1.0, 10.0), rng.uniform(-2.0, 2.0));
    for (int i = 0; i < nc; ++i) {
      std::vector<LinearTerm> terms;
      for (int j = 0; j < nv; ++j) {
        if (rng.bernoulli(0.5)) terms.push_back({j, rng.uniform(-1.0, 2.0)});
      }
      if (terms.empty()) terms.push_back({0, 1.0});
      m.add_constraint(std::move(terms), Sense::kLessEqual, rng.uniform(1.0, 8.0));
    }
    const auto sol = solve(m);
    // Bounded box + <= rows with positive RHS: always feasible, never unbounded.
    ASSERT_TRUE(sol.optimal()) << "trial " << trial << ": " << to_string(sol.status);
    EXPECT_LT(m.max_violation(sol.x), 1e-7) << "trial " << trial;
    EXPECT_NEAR(m.objective_value(sol.x), sol.objective, 1e-7);
  }
}

TEST(Simplex, MatchesBruteForceOnRandomVertexEnumeration) {
  // 2-variable LPs solved geometrically: enumerate constraint-pair
  // intersections and boundary points, take the best feasible.
  common::Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    LpModel m;
    const double cx = rng.uniform(-1.0, 1.0), cy = rng.uniform(-1.0, 1.0);
    const int x = m.add_variable(0.0, 5.0, cx);
    const int y = m.add_variable(0.0, 5.0, cy);
    struct Row { double a, b, rhs; };
    std::vector<Row> rows;
    for (int i = 0; i < 3; ++i) {
      Row r{rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0), rng.uniform(1.0, 6.0)};
      rows.push_back(r);
      m.add_constraint({{x, r.a}, {y, r.b}}, Sense::kLessEqual, r.rhs);
    }
    auto feasible = [&](double px, double py) {
      if (px < -1e-9 || px > 5.0 + 1e-9 || py < -1e-9 || py > 5.0 + 1e-9) return false;
      for (const auto& r : rows) {
        if (r.a * px + r.b * py > r.rhs + 1e-9) return false;
      }
      return true;
    };
    // Candidate vertices: intersections of all boundary lines.
    std::vector<std::array<double, 3>> all;
    for (const auto& r : rows) all.push_back({r.a, r.b, r.rhs});
    all.push_back({1.0, 0.0, 0.0});
    all.push_back({1.0, 0.0, 5.0});
    all.push_back({0.0, 1.0, 0.0});
    all.push_back({0.0, 1.0, 5.0});
    double best = 1e100;
    for (std::size_t i = 0; i < all.size(); ++i) {
      for (std::size_t j = i + 1; j < all.size(); ++j) {
        const double det = all[i][0] * all[j][1] - all[j][0] * all[i][1];
        if (std::fabs(det) < 1e-9) continue;
        const double px = (all[i][2] * all[j][1] - all[j][2] * all[i][1]) / det;
        const double py = (all[i][0] * all[j][2] - all[j][0] * all[i][2]) / det;
        if (feasible(px, py)) best = std::min(best, cx * px + cy * py);
      }
    }
    const auto sol = solve(m);
    ASSERT_TRUE(sol.optimal());
    ASSERT_LT(best, 1e99);
    EXPECT_NEAR(sol.objective, best, 1e-6) << "trial " << trial;
  }
}

TEST(Simplex, TinyEntryLeftByPivotDivisionIsClamped) {
  // min -4y s.t. 2y <= 4, 1000x + 1e-11 y >= 0, x = 5: optimum (5, 2).
  // Pivoting x into the second row divides 1e-11 by 1000 and leaves a
  // 1e-14 entry there, below the tableau's zero clamp. A later pivot
  // whose row is zero in y's column must still round that entry to 0
  // when it updates the row; kept, it shifts x to 5 - 2e-14. Exact
  // equality is the point: the clamp makes the result come out exact.
  LpModel m;
  const int x = m.add_variable(0.0, kInf, 0.0);
  const int y = m.add_variable(0.0, kInf, -4.0);
  m.add_constraint({{y, 2.0}}, Sense::kLessEqual, 4.0);
  m.add_constraint({{x, 1000.0}, {y, 1e-11}}, Sense::kGreaterEqual, 0.0);
  m.add_constraint({{x, 1.0}}, Sense::kEqual, 5.0);
  const auto sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << sol.detail;
  EXPECT_EQ(sol.x[0], 5.0);
  EXPECT_EQ(sol.x[1], 2.0);
  EXPECT_EQ(sol.objective, -8.0);
}

}  // namespace
}  // namespace easched::lp
