#include "core/continuous/batch_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <variant>

#include "util/error.hpp"

namespace reclaim::core {

namespace {

/// Constant-speed fill, as speeds_solution would build it: zero-weight
/// tasks keep speed 0 and are skipped from the energy sum, which
/// accumulates in node-id order against each task's own power model.
void fill_constant_speed(const Instance& instance, double speed,
                         const char* method, Solution& out) {
  const auto& g = instance.exec_graph;
  const std::size_t n = g.num_nodes();
  out.feasible = true;
  out.method = method;
  out.speeds.assign(n, 0.0);
  out.energy = 0.0;
  for (graph::NodeId v = 0; v < n; ++v) {
    const double w = g.weight(v);
    if (w == 0.0) continue;
    out.speeds[v] = speed;
    out.energy += instance.power_of(v).task_energy(w, speed);
  }
}

/// True when some positive-weight task runs under the floor (with 1e-12
/// slack): the closed form is not the floored optimum, so the kernel hands
/// the instance back to the numeric solver.
bool violates_floor(const Instance& instance, const Solution& s,
                    double floor) {
  if (floor <= 0.0) return false;
  const auto& g = instance.exec_graph;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.weight(v) == 0.0) continue;
    if (s.speeds[v] < floor * (1.0 - 1e-12)) return true;
  }
  return false;
}

void run_single(const KernelPlan& plan, const Instance* const* instances,
                std::size_t count, Solution* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const Instance& inst = *instances[i];
    const double w = inst.exec_graph.weight(0);
    // Deadline-tight instances may compute w/D a few ulps past s_max;
    // accept within the shared tolerance and clamp to the cap.
    const double speed = std::max(w / inst.deadline, plan.floor);
    if (!within_speed_cap(speed, plan.s_max)) {
      out[i] = infeasible_solution("closed-form-single");
      continue;
    }
    fill_constant_speed(inst, std::min(speed, plan.s_max),
                        "closed-form-single", out[i]);
  }
}

void run_chain(const KernelPlan& plan, const Instance* const* instances,
               std::size_t count, Solution* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const Instance& inst = *instances[i];
    // Clamping the common speed up to the floor stays optimal: serial
    // tasks share one speed, and the per-task cost is non-increasing down
    // to the floor (for an s_crit floor, down to s_crit).
    const double speed =
        std::max(inst.exec_graph.total_weight() / inst.deadline, plan.floor);
    if (!within_speed_cap(speed, plan.s_max)) {
      out[i] = infeasible_solution("closed-form-chain");
      continue;
    }
    fill_constant_speed(inst, std::min(speed, plan.s_max),
                        "closed-form-chain", out[i]);
  }
}

/// Heterogeneous chains: the equal-speed exchange argument needs one
/// shared dynamic exponent across the weighted tasks, and the common
/// speed W/D must clear every per-task floor (a binding floor would
/// over-speed the other tasks) and cap (a binding cap splits the chain
/// into capped and slower segments). Otherwise the instance goes back to
/// the per-task-bounded numeric solver. A requested floor above a
/// weighted task's cap leaves no admissible speed: infeasible, as the
/// numeric route would report it.
void run_chain_hetero(const KernelPlan& plan, const Instance* const* instances,
                      std::size_t count, Solution* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const Instance& inst = *instances[i];
    const auto& g = inst.exec_graph;
    const std::size_t n = g.num_nodes();

    bool empty_band = false;
    bool mixed_alpha = false;
    bool any_weighted = false;
    double alpha = 0.0;
    double max_floor = 0.0;
    double min_cap = std::numeric_limits<double>::infinity();
    for (graph::NodeId v = 0; v < n; ++v) {
      if (g.weight(v) == 0.0) continue;
      if (plan.s_min > plan.caps[v]) {
        empty_band = true;
        break;
      }
      const double a = inst.power_of(v).alpha();
      if (!any_weighted) {
        alpha = a;
      } else if (a != alpha) {
        mixed_alpha = true;
      }
      any_weighted = true;
      max_floor = std::max(max_floor, plan.floors[v]);
      min_cap = std::min(min_cap, plan.caps[v]);
    }
    if (empty_band) {
      out[i] = infeasible_solution("numeric-barrier");
      continue;
    }

    const double common = g.total_weight() / inst.deadline;
    if (mixed_alpha || (any_weighted && common < max_floor) ||
        !within_speed_cap(common, min_cap)) {
      out[i] = Solution{};  // off the closed form: numeric re-solve
      continue;
    }

    Solution& s = out[i];
    s.method = "closed-form-chain";
    s.feasible = true;
    s.speeds.assign(n, 0.0);
    s.energy = 0.0;
    for (graph::NodeId v = 0; v < n; ++v) {
      const double w = g.weight(v);
      if (w == 0.0) continue;
      // min: shave fp slack off the cap.
      s.speeds[v] = std::min(common, plan.caps[v]);
      s.energy += inst.power_of(v).task_energy(w, s.speeds[v]);
    }
  }
}

void run_fork(const KernelPlan& plan, const Instance* const* instances,
              std::size_t count, Solution* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const Instance& inst = *instances[i];
    const auto& g = inst.exec_graph;
    const std::size_t n = g.num_nodes();
    const graph::NodeId root = plan.root;
    const double d = inst.deadline;
    const double w0 = g.weight(root);
    const char* const method =
        plan.join ? "closed-form-join" : "closed-form-fork";

    // Theorem 1: l is the parallel equivalent weight of the leaves.
    double sum_pow = 0.0;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (v == root) continue;
      sum_pow += std::pow(g.weight(v), plan.alpha);
    }
    const double l = sum_pow > 0.0 ? std::pow(sum_pow, plan.inv_alpha) : 0.0;

    Solution& s = out[i];
    s.method = method;
    s.speeds.assign(n, 0.0);

    const double s0_unconstrained = (l + w0) / d;
    double s0;
    double leaf_window;
    if (s0_unconstrained <= plan.s_max) {
      s0 = s0_unconstrained;
      // Unsaturated: leaves run at s0 * w_i / l, i.e. in a shared window
      // of length l / s0.
      leaf_window = l > 0.0 ? l / s0 : 0.0;
    } else {
      // Saturated branch: the source is pinned at s_max.
      s0 = plan.s_max;
      leaf_window = d - w0 / plan.s_max;
      if (l > 0.0 && leaf_window <= 0.0) {
        s = infeasible_solution(method);
        continue;
      }
    }

    s.energy = 0.0;
    bool infeasible = false;
    if (w0 > 0.0) {
      if (!within_speed_cap(s0, plan.s_max)) {
        s = infeasible_solution(method);
        continue;
      }
      s0 = std::min(s0, plan.s_max);
      s.speeds[root] = s0;
      s.energy += inst.power_of(root).task_energy(w0, s0);
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      if (v == root) continue;
      const double w = g.weight(v);
      if (w == 0.0) continue;
      const double sv = w / leaf_window;
      if (!within_speed_cap(sv, plan.s_max)) {
        infeasible = true;
        break;
      }
      s.speeds[v] = std::min(sv, plan.s_max);
      s.energy += inst.power_of(v).task_energy(w, s.speeds[v]);
    }
    if (infeasible) {
      s = infeasible_solution(method);
      continue;
    }
    s.feasible = true;

    // A feasible fork whose leaves run under the s_crit floor is not the
    // floored optimum: hand it back (empty-method sentinel).
    if (violates_floor(inst, s, plan.floor)) s = Solution{};
  }
}

/// Tree kernel over the flattened composition plan. The plan's order/CSR
/// describe the evaluation graph (reversed for in-trees, ids preserved),
/// so weights, power models and output speeds are indexed by original
/// node id throughout. Infeasible results are final; feasible results
/// under the s_crit floor are handed back.
void run_tree(const KernelPlan& plan, const Instance* const* instances,
              std::size_t count, Solution* out) {
  const graph::CompositionPlan& comp = *plan.comp;
  const std::size_t n = comp.child_offset.size() - 1;
  std::vector<double> weq;
  std::vector<double> window;
  constexpr double kTol = 1e-12;

  for (std::size_t i = 0; i < count; ++i) {
    const Instance& inst = *instances[i];
    const auto& g = inst.exec_graph;
    Solution& s = out[i];

    // Bottom-up equivalent weights: weq(v) = w_v + l_alpha(children weqs),
    // in reverse topological order of the evaluation graph.
    weq.assign(n, 0.0);
    for (auto it = comp.order.rbegin(); it != comp.order.rend(); ++it) {
      const graph::NodeId v = *it;
      double sum_pow = 0.0;
      for (std::uint32_t k = comp.child_offset[v]; k < comp.child_offset[v + 1];
           ++k) {
        sum_pow += std::pow(weq[comp.child[k]], plan.alpha);
      }
      const double children =
          sum_pow > 0.0 ? std::pow(sum_pow, plan.inv_alpha) : 0.0;
      weq[v] = g.weight(v) + children;
    }

    s.method = "tree";
    s.speeds.assign(n, 0.0);
    s.energy = 0.0;
    window.assign(n, 0.0);
    for (const graph::NodeId root : comp.roots) window[root] = inst.deadline;

    bool emitted = false;
    for (const graph::NodeId v : comp.order) {
      if (weq[v] == 0.0) continue;  // nothing left to run below v
      if (window[v] <= 0.0) {
        s = infeasible_solution("tree");
        emitted = true;
        break;
      }
      const double speed = std::min(weq[v] / window[v], plan.s_max);
      const double w = g.weight(v);
      double duration = 0.0;
      if (w > 0.0) {
        duration = w / speed;
        if (duration > window[v] * (1.0 + kTol)) {
          s = infeasible_solution("tree");
          emitted = true;
          break;
        }
        s.speeds[v] = speed;
        s.energy += inst.power_of(v).task_energy(w, speed);
      }
      const double remaining = window[v] - duration;
      for (std::uint32_t k = comp.child_offset[v]; k < comp.child_offset[v + 1];
           ++k) {
        window[comp.child[k]] = remaining;
      }
    }
    if (emitted) continue;
    s.feasible = true;

    if (violates_floor(inst, s, plan.floor)) s = Solution{};
  }
}

/// SP kernel over the decomposition's pre-order: walked backward it folds
/// equivalent weights (every child before its parent), walked forward it
/// hands each child its window and visits the leaves in DFS order, which
/// fixes the energy accumulation order. Theorem 2 assumes s_max = +inf,
/// so the answer stands only when its top speed respects the cap and no
/// weighted task runs under the floor; otherwise the instance is handed
/// back.
void run_sp(const KernelPlan& plan, const Instance* const* instances,
            std::size_t count, Solution* out) {
  const graph::CompositionPlan& comp = *plan.comp;
  const graph::SpTree& tree = *comp.sp_tree;
  const std::size_t m = tree.nodes.size();
  std::vector<double> weq;
  std::vector<double> window;

  for (std::size_t i = 0; i < count; ++i) {
    const Instance& inst = *instances[i];
    const auto& g = inst.exec_graph;
    const std::size_t n = g.num_nodes();
    Solution& s = out[i];

    weq.assign(m, 0.0);
    for (auto it = comp.pre_order.rbegin(); it != comp.pre_order.rend(); ++it) {
      const auto& node = tree.nodes[*it];
      double w = 0.0;
      switch (node.kind) {
        case graph::SpKind::kLeaf:
          w = node.task == graph::kNoNode ? 0.0 : g.weight(node.task);
          break;
        case graph::SpKind::kSeries:
          for (const std::size_t c : node.children) w += weq[c];
          break;
        case graph::SpKind::kParallel: {
          double sum_pow = 0.0;
          for (const std::size_t c : node.children) {
            sum_pow += std::pow(weq[c], plan.alpha);
          }
          w = sum_pow > 0.0 ? std::pow(sum_pow, plan.inv_alpha) : 0.0;
          break;
        }
      }
      weq[*it] = w;
    }

    s.method = "series-parallel";
    s.feasible = true;
    s.speeds.assign(n, 0.0);
    s.energy = 0.0;

    window.assign(m, 0.0);
    window[tree.root] = inst.deadline;
    for (const std::uint32_t id : comp.pre_order) {
      const auto& node = tree.nodes[id];
      switch (node.kind) {
        case graph::SpKind::kSeries:
          // Window shares by equivalent weight. An all-zero series
          // subtree has nothing to run: its zero windows are never
          // checked, since every leaf beneath it is weightless.
          for (const std::size_t c : node.children) {
            window[c] = weq[id] == 0.0 ? 0.0 : window[id] * weq[c] / weq[id];
          }
          break;
        case graph::SpKind::kParallel:
          for (const std::size_t c : node.children) window[c] = window[id];
          break;
        case graph::SpKind::kLeaf: {
          if (node.task == graph::kNoNode) break;
          const double w = g.weight(node.task);
          if (w == 0.0) break;
          util::require_numeric(window[id] > 0.0,
                                "sp solver: zero window for a weighted task");
          const double speed = w / window[id];
          s.speeds[node.task] = speed;
          s.energy += inst.power_of(node.task).task_energy(w, speed);
          break;
        }
      }
    }

    const double top =
        s.speeds.empty()
            ? 0.0
            : *std::max_element(s.speeds.begin(), s.speeds.end());
    if (!within_speed_cap(top, plan.s_max) ||
        violates_floor(inst, s, plan.floor)) {
      s = Solution{};  // cap or floor binds: numeric re-solve
    }
  }
}

/// Heterogeneous plan: only the chain's equal-speed form survives
/// heterogeneity (per-slot caps and s_crit floors; run_chain_hetero
/// checks the shared exponent per instance, over the weighted tasks).
std::optional<KernelPlan> plan_hetero(const Instance& instance,
                                      const model::ContinuousModel& continuous,
                                      double s_min, KernelFamily family) {
  if (family != KernelFamily::kChain) return std::nullopt;
  const std::size_t n = instance.exec_graph.num_nodes();
  KernelPlan plan;
  plan.family = family;
  plan.hetero = true;
  plan.s_min = s_min;
  plan.caps.resize(n);
  plan.floors.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    plan.caps[v] = std::min(continuous.s_max, instance.cap_of(v));
    plan.floors[v] = std::max(
        s_min, std::min(instance.power_of(v).critical_speed(), plan.caps[v]));
  }
  return plan;
}

/// The plan of the s_crit reduction's closed form for `instance` with
/// requested floor `s_min`, on the analyzed `info`.
std::optional<KernelPlan> plan_reduction(
    const Instance& instance, const model::ContinuousModel& continuous,
    double s_min, const graph::ShapeInfo& info) {
  const auto& g = instance.exec_graph;
  if (g.num_nodes() == 0 || instance.deadline <= 0.0) return std::nullopt;

  KernelPlan plan;
  switch (info.shape) {
    case graph::GraphShape::kSingleTask:
      plan.family = KernelFamily::kSingle;
      break;
    case graph::GraphShape::kChain:
      plan.family = KernelFamily::kChain;
      break;
    case graph::GraphShape::kFork:
    case graph::GraphShape::kJoin:
      plan.family = KernelFamily::kFork;
      break;
    case graph::GraphShape::kOutTree:
    case graph::GraphShape::kInTree:
      plan.family = KernelFamily::kTree;
      break;
    case graph::GraphShape::kSeriesParallel:
      plan.family = KernelFamily::kSp;
      break;
    default:
      return std::nullopt;  // empty, general
  }

  if (!instance.homogeneous_tasks()) {
    return plan_hetero(instance, continuous, s_min, plan.family);
  }

  const auto& power = instance.power_of(0);
  plan.s_max = std::min(continuous.s_max, instance.cap_of(0));
  if (s_min > plan.s_max) {
    return std::nullopt;  // s_min above the cap: solve_numeric's case
  }
  // The s_crit reduction (DESIGN.md): the floor is raised to s_crit,
  // capped at s_max (beyond the cap the cheapest admissible speed is
  // s_max itself).
  plan.floor = std::max(s_min, std::min(power.critical_speed(), plan.s_max));
  if (plan.family == KernelFamily::kFork ||
      plan.family == KernelFamily::kTree || plan.family == KernelFamily::kSp) {
    plan.alpha = power.alpha();
    plan.inv_alpha = 1.0 / plan.alpha;
  }
  // A join is the fork walked from its sink: Equation (1) is symmetric
  // under time reversal, and run_fork reads nothing but the root and the
  // weights, in node-id order.
  plan.join = info.shape == graph::GraphShape::kJoin;
  if (plan.family == KernelFamily::kFork) {
    plan.root = plan.join ? g.sinks().front() : g.sources().front();
  }
  // Tree/SP: the cached composition plan, or the topology flattened now.
  if (plan.family == KernelFamily::kTree || plan.family == KernelFamily::kSp) {
    plan.comp = info.comp ? info.comp : graph::composition_plan(g, info);
  }
  return plan;
}

/// The one closed-form decision, shared by plan_kernel and
/// solve_closed_form: the reduction's plan, kept under kExact only where
/// the reduction is exact a priori (elsewhere the exact route runs a
/// waterfill or barrier pass on top of it).
std::optional<KernelPlan> plan_closed_form(
    const Instance& instance, const model::ContinuousModel& model,
    double s_min, LeakageMode leakage, const graph::ShapeInfo& info) {
  auto plan = plan_reduction(instance, model, s_min, info);
  if (plan && leakage == LeakageMode::kExact &&
      !reduction_exact_a_priori(instance, model, info.shape)) {
    return std::nullopt;
  }
  return plan;
}

}  // namespace

bool kernel_eligible(const Instance& instance, const model::EnergyModel& model,
                     const SolveOptions& options) {
  // core::solve sends kDp on a sleep-enabled platform to the sleep-DP
  // oracle, never to a closed form.
  return std::holds_alternative<model::ContinuousModel>(model) &&
         !(options.sleep_mode == SleepMode::kDp &&
           instance.platform.has_sleep());
}

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

std::optional<KernelPlan> plan_kernel(const Instance& instance,
                                      const model::EnergyModel& model,
                                      const SolveOptions& options,
                                      const graph::ShapeInfo* shape) {
  if (!kernel_eligible(instance, model, options)) return std::nullopt;
  std::optional<graph::ShapeInfo> analyzed;
  const graph::ShapeInfo& info =
      shape != nullptr ? *shape
                       : analyzed.emplace(graph::analyze(instance.exec_graph));
  return plan_closed_form(instance, std::get<model::ContinuousModel>(model),
                          options.continuous_s_min, options.leakage, info);
}

bool solve_closed_form(const Instance& instance,
                       const model::ContinuousModel& model, double s_min,
                       LeakageMode leakage, const graph::ShapeInfo& shape,
                       Solution& out) {
  const auto plan = plan_closed_form(instance, model, s_min, leakage, shape);
  if (!plan) return false;
  const Instance* const ptr = &instance;
  solve_kernel_run(*plan, &ptr, 1, &out);
  return !out.method.empty();  // empty: handed back
}

std::optional<KernelFamily> kernel_family_of(std::string_view method) {
  if (method == "closed-form-single") return KernelFamily::kSingle;
  if (method == "closed-form-chain") return KernelFamily::kChain;
  if (method == "closed-form-fork" || method == "closed-form-join") {
    return KernelFamily::kFork;
  }
  if (method == "tree") return KernelFamily::kTree;
  if (method == "series-parallel") return KernelFamily::kSp;
  return std::nullopt;
}

bool kernel_run_compatible(const Instance& head, const Instance& other) {
  if (other.deadline <= 0.0) return false;
  // Instances of one sweep copy one graph and share its structure, so
  // this is a pointer compare; otherwise the adjacency is compared.
  if (!head.exec_graph.same_topology(other.exec_graph)) return false;
  const std::size_t n = head.exec_graph.num_nodes();
  // Per-slot power model and folded cap equality (+inf == +inf included):
  // for a homogeneous platform one slot speaks for all (this scan runs
  // once per batch instance, so the short-circuit matters for sweep
  // throughput), for a hetero head it pins the whole platform signature.
  // Weights and deadline are the run's free axes.
  if (n > 0 && head.platform.homogeneous() && other.platform.homogeneous()) {
    return head.power_of(0) == other.power_of(0) &&
           head.cap_of(0) == other.cap_of(0);
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!(head.power_of(v) == other.power_of(v))) return false;
    if (head.cap_of(v) != other.cap_of(v)) return false;
  }
  return true;
}

void solve_kernel_run(const KernelPlan& plan,
                      const Instance* const* instances, std::size_t count,
                      Solution* out) {
  switch (plan.family) {
    case KernelFamily::kSingle:
      run_single(plan, instances, count, out);
      break;
    case KernelFamily::kChain:
      if (plan.hetero) {
        run_chain_hetero(plan, instances, count, out);
      } else {
        run_chain(plan, instances, count, out);
      }
      break;
    case KernelFamily::kFork:
      run_fork(plan, instances, count, out);
      break;
    case KernelFamily::kTree:
      run_tree(plan, instances, count, out);
      break;
    case KernelFamily::kSp:
      run_sp(plan, instances, count, out);
      break;
  }
}

}  // namespace reclaim::core
