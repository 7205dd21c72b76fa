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

Solution numeric(const Instance& instance, const model::ContinuousModel& model,
                 double s_min, const ContinuousOptions& options) {
  NumericOptions numeric_options;
  numeric_options.rel_gap = options.rel_gap;
  numeric_options.s_min = s_min;
  return solve_numeric(instance, model, numeric_options);
}

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

/// Heterogeneous route: a chain keeps its equal-speed closed form where
/// that is exact; everything else — and every chain where a floor, a cap
/// or mixed exponents rule it out — runs the numeric barrier solver with
/// per-task caps (processor cap folded with the model's global one) and
/// s_crit floors (DESIGN.md, "Heterogeneous platforms").
Solution solve_hetero(const Instance& instance,
                      const model::ContinuousModel& model,
                      const ContinuousOptions& options,
                      const graph::ShapeInfo& info) {
  if (!options.force_numeric) {
    Solution s;
    if (solve_closed_form(instance, model, options.s_min, info, s)) return s;
  }

  NumericOptions numeric_options;
  numeric_options.rel_gap = options.rel_gap;
  if (!effective_bounds(instance, model, options.s_min,
                        numeric_options.s_max_per_task,
                        numeric_options.s_min_per_task)) {
    return infeasible_solution("numeric-barrier");
  }
  return solve_numeric(instance, model, numeric_options);
}

/// Join: Equation (1) is symmetric under time reversal, so the join
/// optimum is the fork optimum of the reversed graph with identical
/// speeds. Reversal preserves node ids, so the platform assignment
/// carries over verbatim.
bool solve_join(const Instance& instance, const model::ContinuousModel& model,
                double s_min, Solution& out) {
  const Instance reversed{instance.exec_graph.reversed(), instance.deadline,
                          instance.platform, instance.assignment};
  graph::ShapeInfo fork;
  fork.shape = graph::GraphShape::kFork;
  if (!solve_closed_form(reversed, model, s_min, fork, out)) return false;
  out.method = "closed-form-join";
  return true;
}

/// True when the s_crit reduction provably attains the true leaky optimum
/// on this instance (DESIGN.md, "When the reduction is exact"), so the
/// exact route can skip its second solve and return the reduction's
/// solution bit-identically:
///   - no weighted task has static power (the floor is 0),
///   - a single task (its own floor and cap apply directly),
///   - a chain whose weighted tasks share one alpha, P_stat and effective
///     cap: once the deadline binds, sum d_v = D makes the leakage term
///     allocation-independent; otherwise every task sits at the shared
///     s_crit (or cap), its per-task global minimum.
/// Mixed-P_stat chains and slack-bearing parallel shapes are exactly the
/// documented not-exact class and return false.
bool reduction_exact_a_priori(const Instance& instance,
                              const model::ContinuousModel& model,
                              graph::GraphShape shape) {
  const auto& g = instance.exec_graph;
  const std::size_t n = g.num_nodes();
  bool any_static = false;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (g.weight(v) > 0.0 && instance.power_of(v).has_static_power()) {
      any_static = true;
      break;
    }
  }
  if (!any_static) return true;
  if (n <= 1) return true;
  if (shape != graph::GraphShape::kChain &&
      shape != graph::GraphShape::kSingleTask) {
    return false;
  }

  bool first = true;
  double alpha = 0.0;
  double p_static = 0.0;
  double cap = 0.0;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (g.weight(v) == 0.0) continue;
    const auto& power = instance.power_of(v);
    const double task_cap = std::min(model.s_max, instance.cap_of(v));
    if (first) {
      alpha = power.alpha();
      p_static = power.p_static();
      cap = task_cap;
      first = false;
    } else if (power.alpha() != alpha || power.p_static() != p_static ||
               task_cap != cap) {
      return false;
    }
  }
  return true;
}

/// LeakageMode::kExact: solve the reduction, and unless it is provably
/// exact on this instance also run the numeric barrier solver on the true
/// duration-charged objective, adopting its answer only when it clearly
/// beats the reduction. "Clearly" means beyond barrier noise (a multiple
/// of the duality-gap target): instances where the reduction is already
/// optimal — but only detectably so a posteriori, e.g. floors binding
/// everywhere — keep the reduction's solution bit-identically, and the
/// exact route's energy can never exceed the reduction's.
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
  if (options.leakage == LeakageMode::kExact) {
    return solve_exact_leaky(instance, original_model, options, info);
  }
  if (!instance.homogeneous_tasks())
    return solve_hetero(instance, original_model, options, info);

  // Homogeneous platform: fold the (shared) processor cap into the model's
  // global one and run the identical-processor machinery unchanged. With
  // an uncapped platform min(s_max, +inf) == s_max, so pre-platform
  // instances take bit-identical paths.
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

  // The closed forms apply the s_crit reduction's floor themselves and
  // hand an instance back when it binds.
  if (!options.force_numeric) {
    if (info.shape == graph::GraphShape::kEmpty) {
      Solution s;
      s.feasible = true;
      s.energy = 0.0;
      s.method = "trivial-empty";
      return s;
    }
    Solution s;
    if (info.shape == graph::GraphShape::kJoin
            ? solve_join(instance, model, options.s_min, s)
            : solve_closed_form(instance, model, options.s_min, info, s)) {
      return s;
    }
  }

  // The s_crit reduction (DESIGN.md): under P = P_stat + s^alpha the
  // per-task busy cost is convex with minimizer s_crit, so the
  // leakage-aware problem runs the pure-dynamic machinery with the speed
  // floor raised to s_crit (capped at s_max: beyond the cap the cheapest
  // admissible speed is s_max itself).
  const double floor = std::max(
      options.s_min, std::min(instance.power().critical_speed(), model.s_max));
  return numeric(instance, model, floor, options);
}

}  // namespace reclaim::core
