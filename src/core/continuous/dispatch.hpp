// Continuous-model front door: picks the strongest applicable solver.
//
//   single/chain/fork/join -> closed forms (Theorem 1; a join is the fork
//                             rooted at its sink)
//   out-/in-tree           -> l_alpha composition (Theorem 2, finite s_max)
//   series-parallel        -> SP composition (Theorem 2) when the
//                             unconstrained optimum respects s_max
//   anything else          -> numeric barrier solver (geometric program)
//
// The closed forms are one decision, taken first: solve_continuous asks
// the engine's kernel planner (core/continuous/batch_kernels) under the
// same leakage mode and answers with a kernel run of one. The engine's
// long runs use the same planner and kernels, so its answers are
// bit-identical to this function's by construction. A closed form the
// kernel hands back — an optional speed floor s_min (Theorem 5's
// rounding) or the SP speed cap binds — runs the floored numeric solver.
// Under a leakage-aware power model the floor is additionally raised to
// the critical speed s_crit (the s_crit reduction, DESIGN.md); single-task
// and chain graphs stay on the closed-form path by clamping their
// constant speed, every other shape falls back to the numeric solver when
// the floor binds.
//
// Heterogeneous platforms (tasks seeing different power models or
// processor caps via Instance::power_of/cap_of): chains whose weighted
// tasks share one exponent keep their closed form where exact; everything
// else runs the numeric barrier solver with per-task caps and s_crit
// floors (DESIGN.md, "Heterogeneous platforms").
//
// LeakageMode::kExact upgrades the reduction to the exact leaky solver.
// Where the reduction is provably optimal (reduction_exact_a_priori: no
// static power, single tasks, uniform-P_stat/alpha/cap chains) it returns
// the reduction's solution bit-identically, and the planner plans exactly
// those instances. Everything else additionally runs a waterfill (chains,
// forks) or the numeric barrier solver on the true duration-charged
// objective sum_v (P_stat_v d_v + w_v^alpha_v / d_v^(alpha_v-1)) and keeps
// the cheaper answer (DESIGN.md, "Exact leaky solver").
#pragma once

#include "core/problem.hpp"
#include "graph/classify.hpp"
#include "model/energy_model.hpp"

namespace reclaim::core {

struct ContinuousOptions {
  /// Optional speed floor (Theorem 5 relaxation). Above a processor's cap
  /// the instance is infeasible; above the model's s_max the numeric
  /// route throws InvalidArgument.
  double s_min = 0.0;
  double rel_gap = 1e-9;   ///< numeric-solver duality gap
  bool force_numeric = false;  ///< bypass closed forms (for cross-checks)
  /// Leakage handling: the s_crit reduction (default), or the exact
  /// duration-charged objective, which solves the true busy energy through
  /// the numeric barrier solver and returns the cheaper of the two
  /// answers — bit-identical to the reduction wherever that is provably
  /// exact (DESIGN.md, "Exact leaky solver").
  LeakageMode leakage = LeakageMode::kReduction;
  /// Pre-computed graph::analyze of the execution graph (the engine's
  /// shape cache analyzes each topology once and attaches its composition
  /// plan), so repeated shapes skip the classification, the SP
  /// decomposition and the flattening. Not owned; must outlive the call.
  /// Null: analyzed here.
  const graph::ShapeInfo* shape = nullptr;
};

/// Solves the Continuous MinEnergy instance.
[[nodiscard]] Solution solve_continuous(const Instance& instance,
                                        const model::ContinuousModel& model,
                                        const ContinuousOptions& options = {});

}  // namespace reclaim::core
