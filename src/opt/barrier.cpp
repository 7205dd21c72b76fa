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

/// phi_t(x) = t * f(x) - sum log(residual_k); +inf outside the domain.
/// Residuals are checked before f is evaluated: line-search candidates may
/// fall outside f's domain (e.g. non-positive durations).
double barrier_value(const ConvexObjective& f,
                     const std::vector<SparseInequality>& ineqs, double t,
                     const la::Vector& x) {
  double log_sum = 0.0;
  for (const auto& ineq : ineqs) {
    const double r = ineq.residual(x);
    if (r <= 0.0) return std::numeric_limits<double>::infinity();
    log_sum += std::log(r);
  }
  return t * f.value(x) - log_sum;
}

/// The Newton system's fixed structure: the factorization's symbolic
/// phase, and where each constraint's rank-one term a_k a_k^T lands in it.
/// Pair p of constraint k adds coeff[p] / r_k^2 at values()[slot[p]],
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
  for (const auto& ineq : ineqs) {
    util::require(ineq.residual(x0) > 0.0,
                  "barrier start point is not strictly feasible");
  }

  BarrierResult result;
  result.x = std::move(x0);
  const auto m = static_cast<double>(ineqs.size());

  NewtonSystem system(dim, ineqs);
  const std::span<double> values = system.chol.values();
  la::Vector grad(dim);
  la::Vector hess_diag(dim);
  la::Vector residuals(ineqs.size());
  la::Vector step(dim);
  la::Vector candidate(dim);

  double t = options.t0;
  for (std::size_t stage = 0; stage < options.max_stages; ++stage) {
    // Newton centering for phi_t; phi_x tracks phi_t at the iterate.
    double phi_x = barrier_value(objective, ineqs, t, result.x);
    for (std::size_t it = 0; it < options.max_newton_per_stage; ++it) {
      std::fill(grad.begin(), grad.end(), 0.0);
      std::fill(hess_diag.begin(), hess_diag.end(), 0.0);
      system.chol.clear();

      objective.add_gradient(result.x, grad);
      for (auto& g : grad) g *= t;
      objective.add_hessian_diagonal(result.x, hess_diag);
      for (std::size_t i = 0; i < dim; ++i)
        values[system.diagonal[i]] = t * hess_diag[i];

      for (std::size_t k = 0; k < ineqs.size(); ++k) {
        const double r = ineqs[k].residual(result.x);
        util::require_numeric(r > 0.0, "barrier iterate left the domain");
        residuals[k] = r;
        const double inv = 1.0 / r;
        const double inv2 = inv * inv;
        // grad += a_k / r_k ; hess += a_k a_k^T / r_k^2  (a_k = +coeffs).
        for (const auto& [vi, ci] : ineqs[k].terms) grad[vi] += ci * inv;
        for (std::size_t p = system.first[k]; p < system.first[k + 1]; ++p)
          values[system.slot[p]] += system.coeff[p] * inv2;
      }

      // Newton direction: hess dx = -grad.
      system.chol.factor(kPivotRelTol);
      for (std::size_t i = 0; i < dim; ++i) step[i] = -grad[i];
      system.chol.solve(step);

      const double decrement2 = -la::dot(grad, step);
      ++result.newton_steps;
      if (decrement2 * 0.5 <= options.newton_tol) break;

      // Largest step that keeps all residuals positive.
      double step_max = 1.0;
      for (std::size_t k = 0; k < ineqs.size(); ++k) {
        double along = 0.0;
        for (const auto& [vi, ci] : ineqs[k].terms) along += ci * step[vi];
        if (along > 0.0) step_max = std::min(step_max, 0.99 * residuals[k] / along);
      }

      // Backtracking line search on phi_t. When it finds no strict
      // decrease, the predicted decrease is below phi_t's float resolution:
      // the stage is centered to working precision, and the iterate stays.
      double sigma = step_max;
      double phi = phi_x;
      for (std::size_t bt = 0; bt < 80; ++bt) {
        for (std::size_t i = 0; i < dim; ++i)
          candidate[i] = result.x[i] + sigma * step[i];
        phi = barrier_value(objective, ineqs, t, candidate);
        if (phi <= phi_x - options.armijo * sigma * decrement2) break;
        sigma *= options.backtrack;
      }
      if (!(phi < phi_x)) break;
      result.x.swap(candidate);
      phi_x = phi;
    }

    result.objective = objective.value(result.x);
    result.gap = m / t;
    if (result.gap <= options.rel_gap * std::max(1.0, std::abs(result.objective)))
      break;
    t *= options.mu;
  }
  return result;
}

}  // namespace reclaim::opt
