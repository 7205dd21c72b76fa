#include "core/continuous/dispatch.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/continuous/batch_kernels.hpp"
#include "core/continuous/numeric_solver.hpp"
#include "core/continuous/waterfill.hpp"
#include "graph/classify.hpp"

namespace reclaim::core {

namespace {

/// Per-task effective bounds of the s_crit reduction, shared by the
/// heterogeneous route and the exact-leaky route: cap_v folds the model's
/// global cap with the processor cap, and weighted tasks get the floor
/// max(s_min, min(s_crit_v, cap_v)). Zero-weight tasks stay floorless —
/// they run in zero time at no speed, and a nonzero floor could exceed a
/// slow processor's cap and trip the numeric solver's validation. Returns
/// false when the requested s_min exceeds a weighted task's cap (Theorem
/// 5's rounding floor vs a slower processor): the *restricted* relaxation
/// has no admissible speed there, and callers report infeasible rather
/// than throwing, so CONT-ROUND degrades gracefully and an engine batch is
/// never aborted by one capped instance.
bool effective_bounds(const Instance& instance,
                      const model::ContinuousModel& model, double s_min,
                      std::vector<double>& caps, std::vector<double>& floors) {
  const auto& g = instance.exec_graph;
  const std::size_t n = g.num_nodes();
  caps.assign(n, model.s_max);
  floors.assign(n, 0.0);
  for (graph::NodeId v = 0; v < n; ++v) {
    caps[v] = std::min(model.s_max, instance.cap_of(v));
    if (g.weight(v) == 0.0) continue;
    if (s_min > caps[v]) return false;
    floors[v] = std::max(
        s_min, std::min(instance.power_of(v).critical_speed(), caps[v]));
  }
  return true;
}

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

  std::vector<double> caps;
  std::vector<double> floors;
  if (!effective_bounds(instance, model, options.s_min, caps, floors)) {
    return reduction;  // unreachable: the reduction reported it infeasible
  }

  const bool chain_shape = info.shape == graph::GraphShape::kChain;
  const bool fork_shape = info.shape == graph::GraphShape::kFork;

  Solution exact;
  if (chain_shape || fork_shape) {
    // Chains and forks have scalar exact solutions (KKT waterfilling on
    // the single coupling constraint: the deadline for a chain, the
    // source's duration for a fork); no second barrier run needed.
    exact = chain_shape ? solve_chain_waterfill(instance, caps, floors)
                        : solve_fork_waterfill(instance, caps, floors);
  } else {
    NumericOptions numeric_options;
    numeric_options.rel_gap = options.rel_gap;
    numeric_options.exact_leakage = true;
    numeric_options.s_max_per_task = std::move(caps);
    numeric_options.s_min_per_task = std::move(floors);
    exact = solve_numeric(instance, model, numeric_options);
  }

  const double switch_tol = std::max(1e-7, 10.0 * options.rel_gap);
  if (exact.feasible && exact.energy < reduction.energy * (1.0 - switch_tol)) {
    return exact;
  }
  return reduction;
}

}  // namespace

Solution solve_continuous(const Instance& instance,
                          const model::ContinuousModel& original_model,
                          const ContinuousOptions& options) {
  const auto& g = instance.exec_graph;
  std::optional<graph::ShapeInfo> analyzed;
  const graph::ShapeInfo& info =
      options.shape ? *options.shape : analyzed.emplace(graph::analyze(g));

  // The one closed-form decision: the kernel planner's, under the same
  // leakage mode. The closed forms apply the s_crit reduction's floor
  // themselves and hand an instance back when it binds.
  if (!options.force_numeric) {
    Solution s;
    if (solve_closed_form(instance, original_model, options.s_min,
                          options.leakage, info, s)) {
      return s;
    }
  }
  if (options.leakage == LeakageMode::kExact) {
    return solve_exact_leaky(instance, original_model, options, info);
  }

  NumericOptions numeric_options;
  numeric_options.rel_gap = options.rel_gap;
  // Heterogeneous platforms: the numeric barrier solver with per-task caps
  // (processor cap folded with the model's global one) and s_crit floors
  // (DESIGN.md, "Heterogeneous platforms").
  if (!instance.homogeneous_tasks()) {
    if (!effective_bounds(instance, original_model, options.s_min,
                          numeric_options.s_max_per_task,
                          numeric_options.s_min_per_task)) {
      return infeasible_solution("numeric-barrier");
    }
    return solve_numeric(instance, original_model, numeric_options);
  }

  // Homogeneous platform: fold the (shared) processor cap into the model's
  // global one. With an uncapped platform min(s_max, +inf) == s_max, so
  // pre-platform instances take bit-identical paths.
  const std::size_t proc0 =
      g.num_nodes() == 0 ? 0 : instance.processor_of(0);
  const model::ContinuousModel model{
      std::min(original_model.s_max, instance.platform.cap(proc0))};

  // A requested floor above the (platform-folded) cap leaves no
  // admissible speed for any weighted task: the restricted relaxation is
  // infeasible, same as the heterogeneous route. With no weighted task
  // the floor is vacuous — nothing needs to run at all.
  if (options.s_min > model.s_max) {
    if (critical_weight(g) > 0.0) return infeasible_solution("numeric-barrier");
    Solution trivial;
    trivial.feasible = true;
    trivial.energy = 0.0;
    trivial.method = "numeric-barrier";
    trivial.speeds.assign(g.num_nodes(), 0.0);
    return trivial;
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
  // leakage-aware problem runs the pure-dynamic machinery with the speed
  // floor raised to s_crit (capped at s_max: beyond the cap the cheapest
  // admissible speed is s_max itself).
  numeric_options.s_min = std::max(
      options.s_min, std::min(instance.power().critical_speed(), model.s_max));
  return solve_numeric(instance, model, numeric_options);
}

}  // namespace reclaim::core
