#include "opt/barrier.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "la/sparse_cholesky.hpp"
#include "util/error.hpp"

namespace reclaim::opt {

double SparseInequality::residual(const la::Vector& x) const {
  double r = rhs;
  for (const auto& [var, coeff] : terms) r -= coeff * x[var];
  return r;
}

namespace {

/// Relative pivot floor of the Newton system's factorization: a pivot at
/// or below this fraction of its own diagonal entry is lifted to it.
/// Judging each pivot against its own row keeps the lift off legitimate
/// pivots of rows whose scale is far below the matrix's largest entry.
constexpr double kPivotRelTol = 1e-12;

constexpr std::size_t kMaxIterations = 500;  ///< factorizations per solve
constexpr std::size_t kMaxHalvings = 60;     ///< line-search halvings
constexpr double kToBoundary = 0.99;         ///< step share to s, lambda = 0
constexpr double kArmijo = 1e-4;             ///< sufficient-decrease fraction

/// Largest step along dv that keeps v + step * dv >= 0.
double max_step(double v, double dv) {
  return dv < 0.0 ? -v / dv : std::numeric_limits<double>::infinity();
}

/// The Newton system's fixed structure: the factorization's symbolic
/// phase, and where each constraint's rank-one term a_k a_k^T lands in it.
/// Pair p of constraint k adds coeff[p] * lambda_k / s_k at values()[slot[p]],
/// for p in [first[k], first[k+1]).
struct NewtonSystem {
  la::SparseCholesky chol;
  std::vector<std::size_t> diagonal;  ///< slot of (i, i)
  std::vector<std::size_t> first;
  std::vector<std::size_t> slot;
  la::Vector coeff;

  static la::SparseCholesky analyse(
      std::size_t dim, const std::vector<SparseInequality>& ineqs) {
    std::vector<la::SparseCholesky::Entry> entries;
    for (const auto& ineq : ineqs) {
      for (std::size_t a = 0; a < ineq.terms.size(); ++a)
        for (std::size_t b = a + 1; b < ineq.terms.size(); ++b)
          entries.emplace_back(ineq.terms[a].first, ineq.terms[b].first);
    }
    return la::SparseCholesky(dim, entries);
  }

  NewtonSystem(std::size_t dim, const std::vector<SparseInequality>& ineqs)
      : chol(analyse(dim, ineqs)), diagonal(dim) {
    for (std::size_t i = 0; i < dim; ++i) diagonal[i] = chol.slot(i, i);
    first.reserve(ineqs.size() + 1);
    first.push_back(0);
    for (const auto& ineq : ineqs) {
      // Both orientations of an off-diagonal pair map to one slot; keep
      // one of them. A variable listed twice keeps every ordered pair of
      // its terms, as the dense a_k a_k^T would.
      for (std::size_t a = 0; a < ineq.terms.size(); ++a) {
        for (std::size_t b = 0; b < ineq.terms.size(); ++b) {
          const auto [va, ca] = ineq.terms[a];
          const auto [vb, cb] = ineq.terms[b];
          if (va > vb) continue;
          slot.push_back(chol.slot(va, vb));
          coeff.push_back(ca * cb);
        }
      }
      first.push_back(slot.size());
    }
  }
};

}  // namespace

BarrierResult minimize_with_barrier(const ConvexObjective& objective,
                                    const std::vector<SparseInequality>& ineqs,
                                    la::Vector x0, const BarrierOptions& options) {
  const std::size_t dim = x0.size();
  const std::size_t m = ineqs.size();
  BarrierResult result;
  result.x = std::move(x0);
  la::Vector& x = result.x;

  // The slacks s are variables of their own: recomputing s = b - Ax would
  // cancel catastrophically at active rows. Their drift from b - Ax is the
  // primal residual r_p, which every step's right-hand side removes. The
  // multipliers start on the central path at mu0 = 1: s_k lambda_k = 1.
  la::Vector s(m), lambda(m), r_p(m), cross(m), ds(m), dlambda(m);
  for (std::size_t k = 0; k < m; ++k) {
    s[k] = ineqs[k].residual(x);
    util::require(s[k] > 0.0, "barrier start point is not strictly feasible");
    lambda[k] = 1.0 / s[k];
  }
  NewtonSystem system(dim, ineqs);
  const std::span<double> values = system.chol.values();
  // dual_res = grad + A^T lambda, the dual residual.
  la::Vector grad(dim), hess_diag(dim), dual_res(dim), dx(dim), x_trial(dim);
  double f = objective.value(x);
  double log_s = 0.0;
  for (const double sk : s) log_s += std::log(sk);
  double dual_rel0 = 0.0;

  // One direction from the current factor, aiming at s lambda = target
  // with second-order term cross: dx solves the reduced system for
  //   -grad + A^T ((lambda r_p + cross - target) / s),
  // then ds = r_p - A dx and dlambda = (target - s lambda - cross -
  // lambda ds) / s. Sets step_max (fraction to the boundary) and returns
  // the slope of the merit function phi = f - target sum(log s).
  double target = 0.0;
  double step_max = 1.0;
  const auto direction = [&] {
    for (std::size_t i = 0; i < dim; ++i) dx[i] = -grad[i];
    for (std::size_t k = 0; k < m; ++k) {
      const double shift = (lambda[k] * r_p[k] + cross[k] - target) / s[k];
      for (const auto& [i, c] : ineqs[k].terms) dx[i] += c * shift;
    }
    system.chol.solve(dx);
    double reach = std::numeric_limits<double>::infinity();
    double ds_over_s = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      ds[k] = r_p[k];
      for (const auto& [i, c] : ineqs[k].terms) ds[k] -= c * dx[i];
      dlambda[k] =
          (target - s[k] * lambda[k] - cross[k] - lambda[k] * ds[k]) / s[k];
      reach = std::min({reach, max_step(s[k], ds[k]),
                        max_step(lambda[k], dlambda[k])});
      ds_over_s += ds[k] / s[k];
    }
    step_max = std::min(1.0, kToBoundary * reach);
    return la::dot(grad, dx) - target * ds_over_s;
  };

  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    // Residuals and H_f + A^T diag(lambda / s) A, in one pass.
    std::fill(grad.begin(), grad.end(), 0.0);
    std::fill(hess_diag.begin(), hess_diag.end(), 0.0);
    system.chol.clear();
    objective.add_gradient(x, grad);
    objective.add_hessian_diagonal(x, hess_diag);
    for (std::size_t i = 0; i < dim; ++i)
      values[system.diagonal[i]] = hess_diag[i];
    dual_res = grad;
    double gap = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      r_p[k] = ineqs[k].residual(x) - s[k];
      for (const auto& [i, c] : ineqs[k].terms) dual_res[i] += c * lambda[k];
      const double weight = lambda[k] / s[k];
      for (std::size_t p = system.first[k]; p < system.first[k + 1]; ++p)
        values[system.slot[p]] += system.coeff[p] * weight;
      gap += s[k] * lambda[k];
    }
    // Dual infeasibility, relative to the objective's own gradient.
    const double dual_rel =
        la::norm_inf(dual_res) / std::max(1.0, la::norm_inf(grad));
    if (iter == 0) dual_rel0 = dual_rel;
    if (gap <= options.rel_gap * std::max(1.0, std::abs(f)) &&
        dual_rel <= options.rel_gap)
      break;
    system.chol.factor(kPivotRelTol);
    ++result.newton_steps;

    // Predictor: the affine-scaling direction, target 0. As
    // s dlambda + lambda ds = -s lambda, its step a leaves the gap at
    // (1 - a) gap + a^2 sum(ds dlambda). The target is sigma gap / m with
    // sigma = (gap_aff / gap)^3, floored so that the gap cannot close
    // faster than dual feasibility.
    target = 0.0;
    std::fill(cross.begin(), cross.end(), 0.0);
    direction();
    double cross_sum = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      cross[k] = ds[k] * dlambda[k];
      cross_sum += cross[k];
    }
    if (gap > 0.0) {
      const double gap_aff =
          (1.0 - step_max) * gap + step_max * step_max * cross_sum;
      const double ratio = std::clamp(gap_aff / gap, 0.0, 1.0);
      target = std::max(ratio * ratio * ratio * gap / static_cast<double>(m),
                        dual_rel0 > 0.0 ? dual_rel / dual_rel0 : 0.0);
    }
    // Corrector. Its second-order term can turn the step uphill for phi;
    // the plain centering direction never is.
    double slope = direction();
    if (!(slope < 0.0)) {
      std::fill(cross.begin(), cross.end(), 0.0);
      slope = direction();
    }

    // Armijo backtracking on phi, one common step for (x, s, lambda). When
    // no halving decreases phi, the solve is at float resolution and stops.
    const double phi0 = f - target * log_s;
    double alpha = step_max;
    std::size_t halvings = 0;
    for (; halvings < kMaxHalvings; ++halvings, alpha *= 0.5) {
      for (std::size_t i = 0; i < dim; ++i) x_trial[i] = x[i] + alpha * dx[i];
      const double f_trial = objective.value(x_trial);
      if (!std::isfinite(f_trial)) continue;
      double log_trial = 0.0;
      for (std::size_t k = 0; k < m; ++k)
        log_trial += std::log(s[k] + alpha * ds[k]);
      if (f_trial - target * log_trial <=
          phi0 + kArmijo * alpha * std::min(slope, 0.0)) {
        f = f_trial;
        log_s = log_trial;
        break;
      }
    }
    if (halvings == kMaxHalvings) break;
    x.swap(x_trial);
    for (std::size_t k = 0; k < m; ++k) {
      s[k] += alpha * ds[k];
      lambda[k] += alpha * dlambda[k];
    }
  }

  result.objective = f;
  result.gap = la::dot(s, lambda);
  return result;
}

}  // namespace reclaim::opt
