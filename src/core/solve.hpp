// Unified front door: solve MinEnergy under any EnergyModel variant. The
// one dispatcher: the engine solves through it too, handing it the
// topology's cached graph::ShapeInfo and the instance's mapping.
//
// Dispatch:
//   Continuous  -> solve_continuous (closed-form kernels / numeric); on a
//                  sleep-enabled platform kDp takes solve_sleep_dp, and
//                  with a mapping kRace / kJoint take the race / joint
//                  refiners
//   Vdd-Hopping -> solve_vdd_lp (exact, Theorem 3)
//   Discrete    -> exact branch-and-bound when the instance is small
//                  enough (Theorem 4 willing), else the pseudo-polynomial
//                  chain DP on chains, else CONT-ROUND (Theorem 5)
//   Incremental -> same policy on the incremental mode set
#pragma once

#include "core/problem.hpp"
#include "graph/classify.hpp"
#include "model/energy_model.hpp"
#include "sched/mapping.hpp"

namespace reclaim::core {

struct SolveOptions {
  /// Use the exact exponential solver for Discrete/Incremental when the
  /// graph has at most this many tasks; beyond, chains take the chain DP
  /// and every other shape CONT-ROUND. 0 forces CONT-ROUND regardless of
  /// size and shape (the chain DP included).
  std::size_t exact_discrete_up_to = 12;
  /// Numeric/relaxation accuracy.
  double rel_gap = 1e-9;
  /// Speed floor for the Continuous model (Theorem 5's restricted
  /// relaxation); 0 means unrestricted.
  double continuous_s_min = 0.0;
  /// Static-power handling of the Continuous model: the s_crit reduction
  /// (default) or the exact duration-charged solver (DESIGN.md, "Exact
  /// leaky solver"). Mode-based models are unaffected — branch-and-bound
  /// and the Vdd LP already charge the true leaky cost of every mode, and
  /// CONT-ROUND's rounding analysis is a reduction-semantics bound.
  LeakageMode leakage = LeakageMode::kReduction;
  /// Power-down handling of sleep-enabled continuous instances: the
  /// post-hoc race (default), the joint speed + power-down refinement
  /// (both price idle gaps, so solve() needs a mapping for them), or the
  /// exact single-processor DP oracle (throws off its eligibility domain).
  /// Mode-based models ignore it; so do instances without a sleep spec.
  SleepMode sleep_mode = SleepMode::kRace;
};

/// True when a mapping can change solve()'s answer: a Continuous model on
/// a sleep-enabled platform under kRace or kJoint. The one place that
/// decides it.
[[nodiscard]] bool prices_mapping(const Instance& instance,
                                  const model::EnergyModel& energy_model,
                                  const SolveOptions& options);

/// Solves the instance under `energy_model`. The returned Solution's
/// `method` field records the algorithm that actually ran. `shape`, when
/// given, must be graph::analyze(instance.exec_graph) (the engine passes
/// its cached copy); absent, the shape is derived here as needed. Either
/// way the answer is the same. `mapping`, when given, is the one the
/// execution graph was built from; it is read only where prices_mapping
/// holds.
[[nodiscard]] Solution solve(const Instance& instance,
                             const model::EnergyModel& energy_model,
                             const SolveOptions& options = {},
                             const graph::ShapeInfo* shape = nullptr,
                             const sched::Mapping* mapping = nullptr);

}  // namespace reclaim::core
