// Bi-criteria analysis: the energy/deadline tradeoff.
//
// MinEnergy(G, D) is the energy side of a bi-criteria problem (the paper's
// keywords say "bi-criteria optimization"). Its optimal energy E*(D) is
// non-increasing in D, which makes two utilities natural:
//   - sample the Pareto curve E*(D) over a deadline range;
//   - invert it: the smallest deadline whose optimal energy fits a budget
//     (bisection over the monotone curve).
#pragma once

#include <functional>
#include <vector>

#include "core/problem.hpp"
#include "core/solve.hpp"
#include "model/energy_model.hpp"

namespace reclaim::core {

struct TradeoffPoint {
  double deadline = 0.0;
  double energy = 0.0;
  bool feasible = false;
};

/// Pluggable solver for the tradeoff utilities. Defaults to core::solve;
/// callers can route through engine::ReclaimEngine so curve samples and
/// bisection probes reuse its shape cache and memo (the curve re-solves
/// the same topology at many deadlines).
using SolveFn = std::function<Solution(
    const Instance&, const model::EnergyModel&, const SolveOptions&)>;

/// Samples E*(D) at `points` evenly spaced deadlines in [d_lo, d_hi].
/// Requires d_lo <= d_hi and points >= 1.
[[nodiscard]] std::vector<TradeoffPoint> energy_deadline_curve(
    const Instance& instance, const model::EnergyModel& energy_model,
    double d_lo, double d_hi, std::size_t points,
    const SolveOptions& options = {}, const SolveFn& solver = {});

struct DeadlineForEnergyResult {
  double deadline = 0.0;   ///< smallest deadline meeting the budget
  double energy = 0.0;     ///< optimal energy at that deadline
  bool achievable = false; ///< false when the budget is below E*(d_hi)
};

/// Smallest D in [d_lo, d_hi] with E*(D) <= budget, to relative tolerance
/// `rel_tol` on the deadline. Exact for Continuous/Vdd (their E*(D) is
/// exactly monotone); for the rounding heuristics the curve is monotone up
/// to mode granularity and the result is within one bisection step of the
/// true threshold.
[[nodiscard]] DeadlineForEnergyResult deadline_for_energy(
    const Instance& instance, const model::EnergyModel& energy_model,
    double budget, double d_lo, double d_hi, double rel_tol = 1e-6,
    const SolveOptions& options = {}, const SolveFn& solver = {});

}  // namespace reclaim::core
