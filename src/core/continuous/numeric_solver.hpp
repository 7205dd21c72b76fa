// Continuous solver for arbitrary execution DAGs (the paper's geometric
// programming observation, Section 2.1).
//
// In the variables (t_i, d_i) — completion time and duration — MinEnergy is
//
//   minimize  sum_{w_i > 0} w_i^alpha / d_i^(alpha-1)
//   s.t.      t_i + d_j <= t_j            for each execution edge (i, j)
//             d_i <= t_i,  t_i <= D       for each task
//             w_i/s_max <= d_i (<= w_i/s_min when a floor is requested)
//
// which is smooth convex over a polyhedron; opt::minimize_with_barrier
// solves it to a prescribed duality gap. The optional speed floor s_min is
// not part of the paper's Continuous model ([0, s_max]); it exists for the
// Theorem 5 rounding algorithm, whose analysis needs the continuous
// relaxation restricted to the mode range [s_1, s_m].
#pragma once

#include "core/problem.hpp"
#include "model/energy_model.hpp"

namespace reclaim::core {

struct NumericOptions {
  double rel_gap = 1e-9;   ///< duality-gap target relative to |objective|
  double s_min = 0.0;      ///< optional speed floor (0 = the paper's model)

  /// Optional per-task speed caps (empty = none). Extension beyond the
  /// paper's identical-processor platform: when the frozen mapping places
  /// tasks on heterogeneous processors, task i may not exceed
  /// min(s_max, s_max_per_task[i]). Mutually exclusive with s_min > 0
  /// (Theorem 5's restricted relaxation never needs both).
  std::vector<double> s_max_per_task;

  /// Optional per-task speed floors (empty = none): the s_crit floors of a
  /// heterogeneous platform, one per task, each in [0, cap]. Only valid
  /// together with s_max_per_task (the heterogeneous route always supplies
  /// both) and still mutually exclusive with the scalar s_min. A floor
  /// within tolerance of its cap pins the task: the constraint is dropped
  /// and the extracted speed clamped instead.
  std::vector<double> s_min_per_task;

  /// Charge static power on task durations inside the objective, turning
  /// it into the true platform busy energy
  ///
  ///   sum_{w_v > 0} (P_stat_v * d_v + w_v^alpha_v / d_v^(alpha_v-1))
  ///
  /// (LeakageMode::kExact; DESIGN.md, "Exact leaky solver"). Each linear
  /// term keeps the objective smooth convex, so the barrier machinery is
  /// unchanged. Any s_crit floors remain valid cuts: the per-task busy
  /// cost increases below s_crit while slowing down only tightens the
  /// scheduling constraints, so no optimum runs under the floor. With
  /// every P_stat zero the added terms are exactly 0.0 — the pure-dynamic
  /// path stays bit-identical.
  bool exact_leakage = false;
};

/// Solves any acyclic instance; detects infeasibility exactly (deadline
/// below the critical path at s_max). The boundary case D == D_min returns
/// the all-s_max schedule.
[[nodiscard]] Solution solve_numeric(const Instance& instance,
                                     const model::ContinuousModel& model,
                                     const NumericOptions& options = {});

}  // namespace reclaim::core
