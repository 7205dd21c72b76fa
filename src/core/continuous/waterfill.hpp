// Scalar exact-leaky solver for chains (no barrier run).
//
// On a chain the exact duration-charged problem (DESIGN.md, "Exact leaky
// solver") is separable under the single coupling constraint
// sum_v w_v / s_v <= D: minimizing
//
//   sum_v ( P_stat_v * w_v / s_v + w_v * s_v^(alpha_v - 1) )
//
// over per-task speed bands [floor_v, cap_v]. The KKT conditions give
// each task a closed-form speed under a shared multiplier lambda >= 0 on
// the deadline,
//
//   s_v(lambda) = clamp( ((P_stat_v + lambda) / (alpha_v - 1))^(1/alpha_v),
//                        floor_v, cap_v ),
//
// the chain's makespan T(lambda) = sum_v w_v / s_v(lambda) is
// non-increasing in lambda, and the optimum is lambda = 0 when
// T(0) <= D, else the unique root of T(lambda) = D — a classic
// waterfilling problem, solved here by bisection to machine-level
// accuracy. This replaces the second barrier run that mixed-P_stat
// chains used to take under LeakageMode::kExact with an allocation-light
// scalar solve (the ROADMAP's "exact-leaky closed forms for the simple
// not-exact shapes" item). At lambda = 0 every speed sits at its clamped
// critical speed, so instances where the s_crit reduction is exact
// reproduce its speeds; dispatch still applies the usual switch
// threshold so ties keep the reduction's solution bit-identically.
#pragma once

#include <vector>

#include "core/problem.hpp"

namespace reclaim::core {

/// Exact leaky optimum of a chain instance under per-task effective
/// bounds (caps_v = min(model cap, processor cap), floors_v = the s_crit
/// reduction floors; both from effective_bounds). Requires the
/// execution graph to be a chain; the caller has already established
/// feasibility via the reduction solve, but an over-capacity instance
/// still returns an infeasible solution rather than throwing. Method
/// string: "waterfill-exact-leaky".
[[nodiscard]] Solution solve_chain_waterfill(const Instance& instance,
                                             const std::vector<double>& caps,
                                             const std::vector<double>& floors);

/// Exact leaky optimum of a fork instance under the same per-task
/// effective bounds. A fork has a single coupling variable: the source's
/// duration d0. For fixed d0 every leaf independently runs for
/// min(its unconstrained free duration, D - d0) — the free duration is
/// w_v over the clamped critical speed, the lambda = 0 point of the chain
/// waterfill — so the total duration-charged cost C(d0) is convex in d0
/// and its derivative sign bisects to the optimum: the source's marginal
/// cost against the summed marginal costs of the window-bound leaves.
/// This replaces the second barrier run leaky forks used to take under
/// LeakageMode::kExact (chains got their waterfill first). Same method
/// string, "waterfill-exact-leaky"; an over-capacity instance returns an
/// infeasible solution rather than throwing.
[[nodiscard]] Solution solve_fork_waterfill(const Instance& instance,
                                            const std::vector<double>& caps,
                                            const std::vector<double>& floors);

}  // namespace reclaim::core
