// Log-barrier interior-point method for smooth convex programs with
// sparse linear inequality constraints.
//
// The continuous MinEnergy problem is, in the variables (t_i, d_i), the
// minimization of the convex posynomial-like objective sum w_i^a / d_i^(a-1)
// over a polyhedron — the "geometric programming" observation of the paper
// (Section 2.1, citing Boyd-Vandenberghe). A textbook barrier method with
// Newton centering is exact to the requested duality gap.
//
// The Newton system is sparse: the objective's Hessian is diagonal and
// every constraint adds a rank-one term over its own few variables. The
// pattern is fixed for the whole solve, so it is ordered and analysed once
// (la::SparseCholesky) and only refactored per step (DESIGN.md, "Newton
// system structure").
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "la/vector.hpp"

namespace reclaim::opt {

/// Smooth, convex and separable objective with caller-supplied
/// derivatives: its Hessian is diagonal. Gradient and Hessian diagonal are
/// *added* into the caller's buffers.
class ConvexObjective {
 public:
  virtual ~ConvexObjective() = default;

  [[nodiscard]] virtual double value(const la::Vector& x) const = 0;
  virtual void add_gradient(const la::Vector& x, la::Vector& grad) const = 0;
  virtual void add_hessian_diagonal(const la::Vector& x,
                                    la::Vector& diag) const = 0;
};

/// One inequality `terms . x <= rhs` with a sparse coefficient list.
struct SparseInequality {
  std::vector<std::pair<std::size_t, double>> terms;
  double rhs = 0.0;

  /// Residual rhs - terms.x (positive strictly inside the feasible set).
  [[nodiscard]] double residual(const la::Vector& x) const;
};

struct BarrierOptions {
  double t0 = 1.0;                ///< initial barrier weight
  double mu = 12.0;               ///< barrier weight growth factor
  double rel_gap = 1e-9;          ///< stop when m/t <= rel_gap * max(1, |f|)
  double newton_tol = 1e-11;      ///< Newton decrement^2 / 2 threshold
  std::size_t max_newton_per_stage = 200;
  std::size_t max_stages = 80;
  double armijo = 0.25;
  double backtrack = 0.5;
};

struct BarrierResult {
  la::Vector x;
  double objective = 0.0;
  std::size_t newton_steps = 0;
  double gap = 0.0;              ///< final duality-gap bound m/t
};

/// Minimizes `objective` over {x : every inequality holds}, starting from
/// the strictly feasible `x0` (throws InvalidArgument otherwise).
[[nodiscard]] BarrierResult minimize_with_barrier(
    const ConvexObjective& objective,
    const std::vector<SparseInequality>& inequalities, la::Vector x0,
    const BarrierOptions& options = {});

}  // namespace reclaim::opt
