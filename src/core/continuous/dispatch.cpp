#include "core/continuous/dispatch.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/continuous/batch_kernels.hpp"
#include "core/continuous/numeric_solver.hpp"
#include "core/continuous/waterfill.hpp"
#include "graph/classify.hpp"

namespace reclaim::core {

namespace {

/// LeakageMode::kExact past the closed-form step: solve the reduction,
/// and unless it is exact a priori on this instance also run the numeric
/// barrier solver on the true duration-charged objective, adopting its
/// answer only when it clearly beats the reduction. "Clearly" means
/// beyond barrier noise (a multiple of the duality-gap target): instances
/// where the reduction is already optimal — but only detectably so a
/// posteriori, e.g. floors binding everywhere — keep the reduction's
/// solution bit-identically, and the exact route's energy can never
/// exceed the reduction's.
Solution solve_exact_leaky(const Instance& instance,
                           const model::ContinuousModel& model,
                           const ContinuousOptions& options,
                           const graph::ShapeInfo& info) {
  ContinuousOptions reduction_options = options;
  reduction_options.leakage = LeakageMode::kReduction;
  reduction_options.shape = &info;
  Solution reduction = solve_continuous(instance, model, reduction_options);
  if (reduction_exact_a_priori(instance, model, info.shape)) return reduction;
  // Both modes share one feasible set (same deadline, caps and floors), so
  // an infeasible reduction settles the exact question too.
  if (!reduction.feasible) return reduction;

  const bool chain_shape = info.shape == graph::GraphShape::kChain;
  const bool fork_shape = info.shape == graph::GraphShape::kFork;

  Solution exact;
  if (chain_shape || fork_shape) {
    // Chains and forks have scalar exact solutions (KKT waterfilling on
    // the single coupling constraint: the deadline for a chain, the
    // source's duration for a fork); no second barrier run needed.
    std::vector<double> caps;
    std::vector<double> floors;
    if (!effective_bounds(instance, model, options.s_min, caps, floors)) {
      return reduction;  // unreachable: the reduction reported it infeasible
    }
    exact = chain_shape ? solve_chain_waterfill(instance, caps, floors)
                        : solve_fork_waterfill(instance, caps, floors);
  } else {
    exact = solve_numeric(instance, model,
                          {.rel_gap = options.rel_gap,
                           .s_min = options.s_min,
                           .exact_leakage = true});
  }

  const double switch_tol = std::max(1e-7, 10.0 * options.rel_gap);
  if (exact.feasible && exact.energy < reduction.energy * (1.0 - switch_tol)) {
    return exact;
  }
  return reduction;
}

}  // namespace

Solution solve_continuous(const Instance& instance,
                          const model::ContinuousModel& model,
                          const ContinuousOptions& options) {
  std::optional<graph::ShapeInfo> analyzed;
  const graph::ShapeInfo& info =
      options.shape ? *options.shape
                    : analyzed.emplace(graph::analyze(instance.exec_graph));

  // The one closed-form decision: the kernel planner's, under the same
  // leakage mode. The closed forms apply the s_crit reduction's floor
  // themselves and hand an instance back when it binds.
  if (!options.force_numeric) {
    Solution s;
    if (solve_closed_form(instance, model, options.s_min,
                          options.leakage, info, s)) {
      return s;
    }
  }
  if (options.leakage == LeakageMode::kExact) {
    return solve_exact_leaky(instance, model, options, info);
  }

  if (!options.force_numeric && info.shape == graph::GraphShape::kEmpty) {
    Solution s;
    s.feasible = true;
    s.energy = 0.0;
    s.method = "trivial-empty";
    return s;
  }

  // The s_crit reduction (DESIGN.md): under P = P_stat + s^alpha the
  // per-task busy cost is convex with minimizer s_crit, so the
  // leakage-aware problem runs the pure-dynamic machinery with each
  // task's speed floor raised to its s_crit (capped at its cap: beyond
  // the cap the cheapest admissible speed is the cap itself). The
  // numeric solver derives those bounds from the instance.
  return solve_numeric(instance, model,
                       {.rel_gap = options.rel_gap, .s_min = options.s_min});
}

}  // namespace reclaim::core
