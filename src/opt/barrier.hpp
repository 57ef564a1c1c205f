#pragma once
// Log-barrier interior-point method for separable convex objectives under
// linear inequality constraints  A x <= b.
//
// This is the numerical workhorse behind the paper's claim C2: the
// CONTINUOUS BI-CRIT problem on a general mapped DAG "can be formulated as
// a geometric programming problem ... for which efficient numerical
// schemes exist" (section III, citing Boyd & Vandenberghe). After the
// substitution d_i = w_i/f_i the program becomes
//     minimize   sum_i w_i^3 / d_i^2          (convex for d > 0)
//     subject to start-time / precedence / deadline rows (all linear),
// which is exactly the class this solver handles. The barrier method with
// Newton inner iterations is the textbook scheme B&V propose for such
// programs, so optima agree with the GP formulation to solver tolerance.

#include <functional>
#include <vector>

#include "common/status.hpp"
#include "linalg/matrix.hpp"

namespace easched::opt {

using linalg::Vector;

/// Separable convex objective: sum over registered terms of c / x_j^2,
/// plus an optional linear part. Domain: x_j > 0 for every term index.
///
/// This covers the energy objective (c = w^3 on duration variables) of the
/// continuous model, including re-execution variants (c = 8 w^3).
class InversePowerObjective {
 public:
  /// Adds a term coef / x_index^2 (coef >= 0).
  void add_term(int index, double coef);
  /// Adds a linear term coef * x_index.
  void add_linear(int index, double coef);

  double value(const Vector& x) const;
  /// g += gradient(x)
  void add_gradient(const Vector& x, Vector& g) const;
  /// h_diag += diagonal Hessian(x)  (the Hessian is diagonal)
  void add_hessian_diag(const Vector& x, Vector& h_diag) const;

  /// Indices that must stay strictly positive.
  const std::vector<int>& positive_indices() const noexcept { return positive_; }

 private:
  struct Term {
    int index;
    double coef;
  };
  std::vector<Term> terms_;
  std::vector<Term> linear_;
  std::vector<int> positive_;
};

/// Sparse inequality a^T x <= rhs.
struct LinearConstraint {
  std::vector<std::pair<int, double>> terms;
  double rhs = 0.0;
};

struct BarrierOptions {
  double gap_tolerance = 1e-9;   ///< stop when #constraints / t < gap
  double t_initial = 1.0;        ///< initial barrier weight
  double mu = 20.0;              ///< barrier weight multiplier per outer step
  int max_outer = 64;
  int max_newton_per_outer = 64;
  double armijo_alpha = 0.25;
  double armijo_beta = 0.5;
};

struct BarrierResult {
  common::Status status = common::Status::ok();
  Vector x;                  ///< final (strictly feasible) iterate
  double objective = 0.0;    ///< f(x)
  double gap_bound = 0.0;    ///< m/t certificate: f(x) - f* <= gap_bound
  int newton_steps = 0;
  int outer_iterations = 0;
};

/// Minimises `objective` over { x : A x <= b } starting from the strictly
/// feasible point x0 (every constraint satisfied with positive slack).
///
/// Stopping rule. Each outer step centres t f + phi by damped Newton, and
/// a centering ends at the first of:
///  * the Newton decrement lambda^2/2 falls to tol::kNewtonDecrement;
///  * no backtracked step passes the Armijo test;
///  * the accepted step does not strictly lower t f + phi (the rounding
///    floor). Armijo accepts f1 == f0 only when alpha lambda^2/4 is below
///    half an ulp of f0, which happens at large t (t f + phi ~ 1e13 at
///    t ~ 1e10) where the absolute decrement test can never pass; such a
///    step is not taken;
///  * max_newton_per_outer steps.
/// The outer loop stops once the m/t gap certificate is below
/// gap_tolerance.
///
/// Returns kInvalidArgument when x0 is not strictly feasible and
/// kNotConverged when Newton systems become numerically singular.
BarrierResult minimize_barrier(const InversePowerObjective& objective,
                               const std::vector<LinearConstraint>& constraints,
                               const Vector& x0, const BarrierOptions& options = {});

}  // namespace easched::opt
