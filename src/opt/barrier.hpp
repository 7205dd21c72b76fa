// Primal-dual interior-point method for smooth convex programs with
// sparse linear inequality constraints.
//
// The continuous MinEnergy problem is, in the variables (t_i, d_i), the
// minimization of the convex posynomial-like objective sum w_i^a / d_i^(a-1)
// over a polyhedron — the "geometric programming" observation of the paper
// (Section 2.1, citing Boyd-Vandenberghe). Mehrotra's predictor-corrector
// method (Boyd-Vandenberghe 11.7; Nocedal-Wright 19) solves it to a
// certified duality gap, in 15-50 Newton steps here.
//
// With the slacks eliminated the Newton system is H_f + A^T diag(lambda/s) A:
// the objective's Hessian is diagonal and every constraint adds a rank-one
// term over its own few variables. The pattern is fixed for the whole solve,
// so it is ordered and analysed once (la::SparseCholesky); each step
// refactors it once and solves it for a predictor and a corrector
// (DESIGN.md, "Newton system structure").
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
  /// Stop once s.lambda <= rel_gap * max(1, |f|) and
  /// ||grad f + A^T lambda||_inf <= rel_gap * max(1, ||grad f||_inf).
  double rel_gap = 1e-9;
};

struct BarrierResult {
  la::Vector x;
  double objective = 0.0;
  std::size_t newton_steps = 0;
  /// Final complementarity s.lambda: with the dual residual at zero it
  /// bounds f(x) - f* (weak duality).
  double gap = 0.0;
};

/// Minimizes `objective` over {x : every inequality holds}, starting from
/// the strictly feasible `x0` (throws InvalidArgument otherwise).
[[nodiscard]] BarrierResult minimize_with_barrier(
    const ConvexObjective& objective,
    const std::vector<SparseInequality>& inequalities, la::Vector x0,
    const BarrierOptions& options = {});

}  // namespace reclaim::opt
