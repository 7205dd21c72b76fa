// Continuous solver for arbitrary execution DAGs (the paper's geometric
// programming observation, Section 2.1).
//
// In the variables (t_i, d_i) — completion time and duration — MinEnergy is
//
//   minimize  sum_{w_i > 0} w_i^alpha_i / d_i^(alpha_i-1)
//   s.t.      t_i + d_j <= t_j            for each execution edge (i, j)
//             d_i <= t_i,  t_i <= D       for each task
//             w_i/cap_i <= d_i <= w_i/floor_i
//
// which is smooth convex over a polyhedron; opt::minimize_with_barrier
// solves it to a prescribed duality gap. Every task's bounds come from the
// instance (effective_bounds): its cap folds the model's s_max with its
// processor's cap, and its floor is the s_crit reduction's (DESIGN.md,
// "Per-task s_crit floors and caps"), raised to the optional speed floor
// s_min. That floor is not part of the paper's Continuous model
// ([0, s_max]); it exists for the Theorem 5 rounding algorithm, whose
// analysis needs the continuous relaxation restricted to the mode range
// [s_1, s_m].
#pragma once

#include <vector>

#include "core/problem.hpp"
#include "model/energy_model.hpp"

namespace reclaim::core {

struct NumericOptions {
  double rel_gap = 1e-9;   ///< duality-gap target relative to |objective|
  double s_min = 0.0;      ///< optional speed floor (0 = the paper's model)

  /// Charge static power on task durations inside the objective, turning
  /// it into the true platform busy energy
  ///
  ///   sum_{w_v > 0} (P_stat_v * d_v + w_v^alpha_v / d_v^(alpha_v-1))
  ///
  /// (LeakageMode::kExact; DESIGN.md, "Exact leaky solver"). Each linear
  /// term keeps the objective smooth convex, so the barrier machinery is
  /// unchanged. The s_crit floors remain valid cuts: the per-task busy
  /// cost increases below s_crit while slowing down only tightens the
  /// scheduling constraints, so no optimum runs under the floor. With
  /// every P_stat zero the added terms are exactly 0.0 — the pure-dynamic
  /// path stays bit-identical.
  bool exact_leakage = false;
};

/// Per-task effective bounds of the s_crit reduction: cap_v folds the
/// model's s_max with the processor cap, and weighted tasks get the floor
/// max(s_min, min(s_crit_v, cap_v)). Zero-weight tasks stay floorless —
/// they run in zero time at no speed. Returns false when s_min exceeds a
/// weighted task's cap (Theorem 5's rounding floor vs a slower
/// processor): the restricted relaxation has no admissible speed there,
/// and solvers report infeasible rather than throwing, so CONT-ROUND
/// degrades gracefully and an engine batch is never aborted by one capped
/// instance.
[[nodiscard]] bool effective_bounds(const Instance& instance,
                                    const model::ContinuousModel& model,
                                    double s_min, std::vector<double>& caps,
                                    std::vector<double>& floors);

/// Solves any acyclic instance under its effective bounds; detects
/// infeasibility exactly (deadline below the critical path at the caps,
/// or s_min above a weighted task's processor cap). The boundary case
/// D == D_min returns the all-at-cap schedule. Throws InvalidArgument
/// when s_min lies outside [0, model.s_max].
[[nodiscard]] Solution solve_numeric(const Instance& instance,
                                     const model::ContinuousModel& model,
                                     const NumericOptions& options = {});

}  // namespace reclaim::core
