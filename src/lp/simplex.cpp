#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.hpp"
#include "common/tolerance.hpp"
#include "linalg/matrix.hpp"

namespace easched::lp {
namespace {

using easched::common::tol::kPivot;
using easched::common::tol::kReducedCost;
using linalg::Matrix;

// Pivot updates round every entry below this magnitude to exactly 0.
constexpr double kZeroClamp = 1e-13;

// How each model variable maps into standard-form variables:
//   x = shift + sign*std[col_a] - (split ? std[col_b] : 0)
struct VarMap {
  int col_a = -1;
  int col_b = -1;  // only for free variables (x = a - b)
  double shift = 0.0;
  double sign = 1.0;
};

struct StdRow {
  std::vector<double> coef;  // dense over structural std vars
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
};

// Dense two-phase tableau simplex over the standard-form problem.
class Tableau {
 public:
  Tableau(std::vector<StdRow> rows, std::vector<double> cost, const SimplexOptions& opt)
      : nstruct_(static_cast<int>(cost.size())), cost_(std::move(cost)), opt_(opt) {
    build(std::move(rows));
  }

  LpStatus run(int& total_iterations) {
    LpStatus s1 = optimize(/*phase1=*/true);
    total_iterations = iterations_;
    if (s1 == LpStatus::kIterationLimit) return s1;
    if (phase1_objective() > 1e-7) return LpStatus::kInfeasible;
    to_phase2();
    LpStatus s2 = optimize(/*phase1=*/false);
    total_iterations = iterations_;
    return s2;
  }

  // Value of structural standard variable j in the current basis.
  double structural_value(int j) const {
    for (int r = 0; r < m_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] == j) return rhs(r);
    }
    return 0.0;
  }

  bool structural_is_basic(int j) const {
    for (int r = 0; r < m_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] == j) return true;
    }
    return false;
  }

 private:
  // Tableau layout: T_ is (m+1) x (ncols+1); last row is the reduced-cost
  // row, last column the RHS. Columns: [0,nstruct) structural, then slacks
  // and surpluses, then artificials.
  double rhs(int r) const { return T_(static_cast<std::size_t>(r), static_cast<std::size_t>(ncols_)); }

  void build(std::vector<StdRow> rows) {
    m_ = static_cast<int>(rows.size());
    // Normalise RHS >= 0.
    for (auto& row : rows) {
      if (row.rhs < 0.0) {
        row.rhs = -row.rhs;
        for (double& c : row.coef) c = -c;
        row.sense = row.sense == Sense::kLessEqual
                        ? Sense::kGreaterEqual
                        : (row.sense == Sense::kGreaterEqual ? Sense::kLessEqual : Sense::kEqual);
      }
    }
    int nslack = 0, nartificial = 0;
    for (const auto& row : rows) {
      if (row.sense != Sense::kEqual) ++nslack;
      if (row.sense != Sense::kLessEqual) ++nartificial;
    }
    ncols_ = nstruct_ + nslack + nartificial;
    artificial_begin_ = nstruct_ + nslack;
    T_ = Matrix(static_cast<std::size_t>(m_) + 1, static_cast<std::size_t>(ncols_) + 1);
    basis_.assign(static_cast<std::size_t>(m_), -1);
    dirty_.assign(static_cast<std::size_t>(m_) + 1, true);

    int next_slack = nstruct_;
    int next_art = artificial_begin_;
    for (int r = 0; r < m_; ++r) {
      const auto& row = rows[static_cast<std::size_t>(r)];
      for (int j = 0; j < nstruct_; ++j) {
        T_(static_cast<std::size_t>(r), static_cast<std::size_t>(j)) =
            row.coef[static_cast<std::size_t>(j)];
      }
      T_(static_cast<std::size_t>(r), static_cast<std::size_t>(ncols_)) = row.rhs;
      switch (row.sense) {
        case Sense::kLessEqual:
          T_(static_cast<std::size_t>(r), static_cast<std::size_t>(next_slack)) = 1.0;
          basis_[static_cast<std::size_t>(r)] = next_slack++;
          break;
        case Sense::kGreaterEqual:
          T_(static_cast<std::size_t>(r), static_cast<std::size_t>(next_slack)) = -1.0;
          ++next_slack;
          T_(static_cast<std::size_t>(r), static_cast<std::size_t>(next_art)) = 1.0;
          basis_[static_cast<std::size_t>(r)] = next_art++;
          break;
        case Sense::kEqual:
          T_(static_cast<std::size_t>(r), static_cast<std::size_t>(next_art)) = 1.0;
          basis_[static_cast<std::size_t>(r)] = next_art++;
          break;
      }
    }
    // Phase-1 reduced costs: cost 1 on artificials, reduced against the
    // artificial basis (subtract each artificial-basic row).
    for (int r = 0; r < m_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] >= artificial_begin_) {
        for (int c = 0; c <= ncols_; ++c) {
          T_(static_cast<std::size_t>(m_), static_cast<std::size_t>(c)) -=
              T_(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
        }
      }
    }
    for (int a = artificial_begin_; a < ncols_; ++a) {
      T_(static_cast<std::size_t>(m_), static_cast<std::size_t>(a)) += 1.0;
    }
    phase1_ = true;
  }

  double phase1_objective() const {
    return -T_(static_cast<std::size_t>(m_), static_cast<std::size_t>(ncols_));
  }

  void to_phase2() {
    // Pivot basic artificials out where possible; rows whose non-artificial
    // entries are all ~0 are redundant and stay inert.
    for (int r = 0; r < m_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] < artificial_begin_) continue;
      int enter = -1;
      for (int j = 0; j < artificial_begin_; ++j) {
        if (std::fabs(T_(static_cast<std::size_t>(r), static_cast<std::size_t>(j))) > 1e-7) {
          enter = j;
          break;
        }
      }
      if (enter >= 0) pivot(r, enter);
    }
    // Rebuild the cost row for the real objective.
    for (int c = 0; c <= ncols_; ++c) {
      T_(static_cast<std::size_t>(m_), static_cast<std::size_t>(c)) = 0.0;
    }
    for (int j = 0; j < nstruct_; ++j) {
      T_(static_cast<std::size_t>(m_), static_cast<std::size_t>(j)) =
          cost_[static_cast<std::size_t>(j)];
    }
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      const double cb = b < nstruct_ ? cost_[static_cast<std::size_t>(b)] : 0.0;
      if (cb == 0.0) continue;
      for (int c = 0; c <= ncols_; ++c) {
        T_(static_cast<std::size_t>(m_), static_cast<std::size_t>(c)) -=
            cb * T_(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
      }
    }
    dirty_[static_cast<std::size_t>(m_)] = true;
    phase1_ = false;
  }

  LpStatus optimize(bool phase1) {
    const int cap = opt_.max_iterations > 0 ? opt_.max_iterations
                                            : std::max(10000, 200 * (m_ + ncols_));
    int stall = 0;
    double last_obj = -T_(static_cast<std::size_t>(m_), static_cast<std::size_t>(ncols_));
    bool bland = false;
    for (int it = 0; it < cap; ++it) {
      const int enter = choose_entering(phase1, bland);
      if (enter < 0) return LpStatus::kOptimal;
      const int leave = choose_leaving(enter);
      if (leave < 0) return LpStatus::kUnbounded;
      pivot(leave, enter);
      ++iterations_;
      const double obj = -T_(static_cast<std::size_t>(m_), static_cast<std::size_t>(ncols_));
      if (obj < last_obj - 1e-12) {
        stall = 0;
        last_obj = obj;
      } else if (++stall >= opt_.bland_after_stall) {
        bland = true;  // anti-cycling from here on
      }
    }
    return LpStatus::kIterationLimit;
  }

  int choose_entering(bool phase1, bool bland) const {
    const int limit = phase1 ? ncols_ : artificial_begin_;  // artificials banned in phase 2
    int best = -1;
    double best_cost = -kReducedCost;
    for (int j = 0; j < limit; ++j) {
      const double cj = T_(static_cast<std::size_t>(m_), static_cast<std::size_t>(j));
      if (cj < -kReducedCost) {
        if (bland) return j;
        if (cj < best_cost) {
          best_cost = cj;
          best = j;
        }
      }
    }
    return best;
  }

  int choose_leaving(int enter) const {
    int best = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int r = 0; r < m_; ++r) {
      const double a = T_(static_cast<std::size_t>(r), static_cast<std::size_t>(enter));
      if (a <= kPivot) continue;
      const double ratio = rhs(r) / a;
      // Ties broken by smallest basis index (lexicographic flavour, helps
      // against cycling under Dantzig pricing too).
      if (ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 && best >= 0 &&
           basis_[static_cast<std::size_t>(r)] < basis_[static_cast<std::size_t>(best)])) {
        best_ratio = ratio;
        best = r;
      }
    }
    return best;
  }

  // Sparse pivot. The dense update T(r,:) -= f * T(prow,:) changes row r
  // only in the pivot row's nonzero columns, except that it also clamps
  // every |v| < kZeroClamp in the whole row to 0. Invariant: a row is
  // *clean* when it holds no entry with 0 < |v| < kZeroClamp, and on a
  // clean row the update over the nonzero columns alone gives the dense
  // result bit for bit, apart from the sign of zeros it does not visit
  // (-0.0 kept where the dense loop wrote +0.0; no comparison and no
  // nonzero value depends on it). A row that may not be clean is marked
  // dirty: every row after build(), the cost row after to_phase2(), and a
  // pivot row whose division left a tiny entry (the pivot row itself is
  // never clamped). A dirty row gets the full-width pass the next time it
  // is updated, which leaves it clean.
  void pivot(int prow, int pcol) {
    const std::size_t width = static_cast<std::size_t>(ncols_) + 1;
    double* const pr = T_.row(static_cast<std::size_t>(prow));
    const double p = pr[pcol];
    EASCHED_CHECK_MSG(std::fabs(p) > 1e-300, "simplex pivot on zero element");
    nonzero_.clear();
    bool tiny = false;
    for (std::size_t c = 0; c < width; ++c) {
      pr[c] /= p;
      if (pr[c] != 0.0) {
        nonzero_.push_back(c);
        tiny = tiny || std::fabs(pr[c]) < kZeroClamp;
      }
    }
    dirty_[static_cast<std::size_t>(prow)] = tiny;
    auto update = [pr](double* row, double f, std::size_t c) {
      const double v = row[c] - f * pr[c];
      row[c] = std::fabs(v) < kZeroClamp ? 0.0 : v;
    };
    for (int r = 0; r <= m_; ++r) {
      if (r == prow) continue;
      double* const row = T_.row(static_cast<std::size_t>(r));
      const double f = row[pcol];
      if (f == 0.0) continue;
      if (dirty_[static_cast<std::size_t>(r)]) {
        for (std::size_t c = 0; c < width; ++c) update(row, f, c);
        dirty_[static_cast<std::size_t>(r)] = false;
      } else {
        for (std::size_t c : nonzero_) update(row, f, c);
      }
    }
    basis_[static_cast<std::size_t>(prow)] = pcol;
  }

  int nstruct_ = 0;
  int m_ = 0;
  int ncols_ = 0;
  int artificial_begin_ = 0;
  Matrix T_;
  std::vector<int> basis_;
  std::vector<char> dirty_;           // per tableau row: may hold a tiny entry
  std::vector<std::size_t> nonzero_;  // pivot-row nonzero columns (scratch)
  std::vector<double> cost_;
  SimplexOptions opt_;
  bool phase1_ = true;
  int iterations_ = 0;
};

}  // namespace

LpSolution solve(const LpModel& model, const SimplexOptions& options) {
  LpSolution out;
  const int nvars = model.num_variables();

  // ---- Standard-form conversion -------------------------------------------
  std::vector<VarMap> map(static_cast<std::size_t>(nvars));
  int nstruct = 0;
  std::vector<std::pair<int, double>> upper_rows;  // (std col, upper bound) rows to add
  for (int j = 0; j < nvars; ++j) {
    const auto& v = model.variable(j);
    auto& vm = map[static_cast<std::size_t>(j)];
    const bool lo_finite = std::isfinite(v.lo);
    const bool hi_finite = std::isfinite(v.hi);
    if (!lo_finite && !hi_finite) {
      vm.col_a = nstruct++;
      vm.col_b = nstruct++;
      vm.shift = 0.0;
      vm.sign = 1.0;
    } else if (!lo_finite) {  // x = hi - a, a >= 0
      vm.col_a = nstruct++;
      vm.shift = v.hi;
      vm.sign = -1.0;
    } else {  // x = lo + a, a >= 0
      vm.col_a = nstruct++;
      vm.shift = v.lo;
      vm.sign = 1.0;
      if (hi_finite) upper_rows.emplace_back(vm.col_a, v.hi - v.lo);
    }
  }

  std::vector<double> cost(static_cast<std::size_t>(nstruct), 0.0);
  for (int j = 0; j < nvars; ++j) {
    const auto& v = model.variable(j);
    const auto& vm = map[static_cast<std::size_t>(j)];
    cost[static_cast<std::size_t>(vm.col_a)] += v.obj * vm.sign;
    if (vm.col_b >= 0) cost[static_cast<std::size_t>(vm.col_b)] -= v.obj;
  }

  std::vector<StdRow> rows;
  rows.reserve(static_cast<std::size_t>(model.num_constraints()) + upper_rows.size());
  for (int i = 0; i < model.num_constraints(); ++i) {
    const auto& row = model.row(i);
    StdRow sr;
    sr.coef.assign(static_cast<std::size_t>(nstruct), 0.0);
    sr.sense = row.sense;
    sr.rhs = row.rhs;
    for (const auto& t : row.terms) {
      const auto& vm = map[static_cast<std::size_t>(t.var)];
      sr.coef[static_cast<std::size_t>(vm.col_a)] += t.coef * vm.sign;
      if (vm.col_b >= 0) sr.coef[static_cast<std::size_t>(vm.col_b)] -= t.coef;
      sr.rhs -= t.coef * vm.shift;
    }
    rows.push_back(std::move(sr));
  }
  for (const auto& [col, ub] : upper_rows) {
    StdRow sr;
    sr.coef.assign(static_cast<std::size_t>(nstruct), 0.0);
    sr.coef[static_cast<std::size_t>(col)] = 1.0;
    sr.sense = Sense::kLessEqual;
    sr.rhs = ub;
    rows.push_back(std::move(sr));
  }

  // ---- Solve ----------------------------------------------------------------
  Tableau tab(std::move(rows), std::move(cost), options);
  out.status = tab.run(out.iterations);
  if (out.status == LpStatus::kInfeasible) {
    out.detail = "phase 1 ended with positive artificial mass";
    return out;
  }
  if (out.status == LpStatus::kUnbounded) {
    out.detail = "phase 2 found an unbounded improving ray";
    return out;
  }
  if (out.status == LpStatus::kIterationLimit) {
    out.detail = "pivot cap reached";
    return out;
  }

  // ---- Recover model-space solution -----------------------------------------
  out.x.assign(static_cast<std::size_t>(nvars), 0.0);
  out.is_basic.assign(static_cast<std::size_t>(nvars), false);
  for (int j = 0; j < nvars; ++j) {
    const auto& vm = map[static_cast<std::size_t>(j)];
    double val = vm.shift + vm.sign * tab.structural_value(vm.col_a);
    bool basic = tab.structural_is_basic(vm.col_a);
    if (vm.col_b >= 0) {
      val -= tab.structural_value(vm.col_b);
      basic = basic || tab.structural_is_basic(vm.col_b);
    }
    out.x[static_cast<std::size_t>(j)] = val;
    out.is_basic[static_cast<std::size_t>(j)] = basic;
  }
  out.objective = model.objective_value(out.x);
  return out;
}

}  // namespace easched::lp
