#include "opt/barrier.hpp"

#include <cmath>
#include <limits>

#include "common/tolerance.hpp"
#include "linalg/factor.hpp"

namespace easched::opt {

void InversePowerObjective::add_term(int index, double coef) {
  EASCHED_CHECK_MSG(coef >= 0.0, "inverse-power coefficient must be >= 0");
  terms_.push_back(Term{index, coef});
  positive_.push_back(index);
}

void InversePowerObjective::add_linear(int index, double coef) {
  linear_.push_back(Term{index, coef});
}

double InversePowerObjective::value(const Vector& x) const {
  double v = 0.0;
  for (const auto& t : terms_) {
    const double xi = x[static_cast<std::size_t>(t.index)];
    v += t.coef / (xi * xi);
  }
  for (const auto& t : linear_) v += t.coef * x[static_cast<std::size_t>(t.index)];
  return v;
}

void InversePowerObjective::add_gradient(const Vector& x, Vector& g) const {
  for (const auto& t : terms_) {
    const double xi = x[static_cast<std::size_t>(t.index)];
    g[static_cast<std::size_t>(t.index)] += -2.0 * t.coef / (xi * xi * xi);
  }
  for (const auto& t : linear_) g[static_cast<std::size_t>(t.index)] += t.coef;
}

void InversePowerObjective::add_hessian_diag(const Vector& x, Vector& h) const {
  for (const auto& t : terms_) {
    const double xi = x[static_cast<std::size_t>(t.index)];
    h[static_cast<std::size_t>(t.index)] += 6.0 * t.coef / (xi * xi * xi * xi);
  }
}

namespace {

// Residuals r_k = rhs_k - a_k^T x; all must stay > 0.
bool compute_residuals(const std::vector<LinearConstraint>& cons, const Vector& x,
                       Vector& r) {
  r.assign(cons.size(), 0.0);
  for (std::size_t k = 0; k < cons.size(); ++k) {
    double ax = 0.0;
    for (const auto& [j, c] : cons[k].terms) ax += c * x[static_cast<std::size_t>(j)];
    r[k] = cons[k].rhs - ax;
    if (!(r[k] > 0.0)) return false;
  }
  return true;
}

double barrier_value(const Vector& r) {
  double phi = 0.0;
  for (double rk : r) phi -= std::log(rk);
  return phi;
}

}  // namespace

BarrierResult minimize_barrier(const InversePowerObjective& objective,
                               const std::vector<LinearConstraint>& constraints,
                               const Vector& x0, const BarrierOptions& opt) {
  BarrierResult out;
  const std::size_t n = x0.size();
  const std::size_t m = constraints.size();
  Vector x = x0;
  Vector r;
  if (!compute_residuals(constraints, x, r)) {
    out.status = common::Status::invalid("barrier: x0 is not strictly feasible");
    return out;
  }
  for (int j : objective.positive_indices()) {
    if (!(x[static_cast<std::size_t>(j)] > 0.0)) {
      out.status = common::Status::invalid("barrier: x0 has non-positive objective coordinate");
      return out;
    }
  }

  double t = opt.t_initial;
  for (int outer = 0; outer < opt.max_outer; ++outer) {
    ++out.outer_iterations;
    // ---- Newton centering for  t*f(x) + phi(x) ----------------------------
    for (int inner = 0; inner < opt.max_newton_per_outer; ++inner) {
      // Gradient.
      Vector g(n, 0.0);
      objective.add_gradient(x, g);
      for (double& gi : g) gi *= t;
      for (std::size_t k = 0; k < m; ++k) {
        const double inv_r = 1.0 / r[k];
        for (const auto& [j, c] : constraints[k].terms) {
          g[static_cast<std::size_t>(j)] += c * inv_r;
        }
      }
      // Hessian: t*diag(f'') + sum a a^T / r^2.
      linalg::Matrix H(n, n);
      Vector hd(n, 0.0);
      objective.add_hessian_diag(x, hd);
      for (std::size_t j = 0; j < n; ++j) H(j, j) = t * hd[j] + 1e-12;
      for (std::size_t k = 0; k < m; ++k) {
        const double inv_r2 = 1.0 / (r[k] * r[k]);
        for (const auto& [j1, c1] : constraints[k].terms) {
          for (const auto& [j2, c2] : constraints[k].terms) {
            H(static_cast<std::size_t>(j1), static_cast<std::size_t>(j2)) += c1 * c2 * inv_r2;
          }
        }
      }
      auto step = linalg::solve_spd(H, g);
      if (!step.is_ok()) {
        out.status = common::Status::not_converged("barrier: Newton system singular (" +
                                                   step.status().message() + ")");
        out.x = x;
        out.objective = objective.value(x);
        return out;
      }
      Vector dx = std::move(step).take();  // solves H dx = g; descent dir = -dx
      const double decrement2 = linalg::dot(g, dx);
      ++out.newton_steps;
      if (decrement2 * 0.5 <= common::tol::kNewtonDecrement) break;

      // Max feasible step along -dx (keep residuals and positive coords > 0).
      double alpha_max = 1.0;
      for (std::size_t k = 0; k < m; ++k) {
        double adx = 0.0;
        for (const auto& [j, c] : constraints[k].terms) {
          adx += c * (-dx[static_cast<std::size_t>(j)]);
        }
        if (adx > 0.0) alpha_max = std::min(alpha_max, r[k] / adx);
      }
      for (int j : objective.positive_indices()) {
        const double d = dx[static_cast<std::size_t>(j)];
        if (d > 0.0) {
          alpha_max = std::min(alpha_max, x[static_cast<std::size_t>(j)] / d);
        }
      }
      double alpha = 0.99 * alpha_max;
      if (alpha <= 0.0) break;

      // Armijo backtracking on  t f + phi.
      const double f0 = t * objective.value(x) + barrier_value(r);
      const double slope = -decrement2;  // directional derivative along -dx
      Vector x_new(n);
      Vector r_new;
      bool accepted = false;
      double f1 = f0;
      for (int ls = 0; ls < 64; ++ls) {
        for (std::size_t j = 0; j < n; ++j) x_new[j] = x[j] - alpha * dx[j];
        bool interior = compute_residuals(constraints, x_new, r_new);
        if (interior) {
          for (int j : objective.positive_indices()) {
            if (!(x_new[static_cast<std::size_t>(j)] > 0.0)) {
              interior = false;
              break;
            }
          }
        }
        if (interior) {
          f1 = t * objective.value(x_new) + barrier_value(r_new);
          if (f1 <= f0 + opt.armijo_alpha * alpha * slope) {
            accepted = true;
            break;
          }
        }
        alpha *= opt.armijo_beta;
      }
      // Stop centering (and advance t) when no step passes Armijo, or when
      // the accepted one does not strictly lower t f + phi: that step would
      // move x only within rounding (see "Stopping rule" in barrier.hpp).
      if (!accepted || !(f1 < f0)) break;
      x.swap(x_new);
      r.swap(r_new);
    }

    out.gap_bound = static_cast<double>(m) / t;
    if (out.gap_bound < opt.gap_tolerance) break;
    t *= opt.mu;
  }

  out.x = std::move(x);
  out.objective = objective.value(out.x);
  if (out.gap_bound >= opt.gap_tolerance * 10.0 && m > 0) {
    out.status = common::Status::not_converged("barrier: gap bound " +
                                               std::to_string(out.gap_bound));
  }
  return out;
}

}  // namespace easched::opt
