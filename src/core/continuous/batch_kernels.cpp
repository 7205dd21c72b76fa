#include "core/continuous/batch_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "graph/topo.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"

namespace reclaim::core {

namespace {

/// Constant-speed fill replicating speeds_solution exactly: zero-weight
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

/// The dispatcher's respects_floor post-check with the same 1e-12 slack:
/// true when some positive-weight task runs under the floor, in which case
/// the scalar path would fall back to the numeric solver and the kernel
/// must hand the instance back.
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

/// Heterogeneous chains sharing one exponent per task slot: replicates
/// dispatch's effective_bounds infeasibility and solve_chain_hetero
/// operation-for-operation. The plan guarantees a uniform alpha across
/// every slot, so the scalar form's mixed-exponent bailout cannot fire;
/// the remaining bailouts (a binding floor or cap) hand the instance back
/// to the scalar path's numeric solver.
void run_chain_hetero(const KernelPlan& plan, const Instance* const* instances,
                      std::size_t count, Solution* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const Instance& inst = *instances[i];
    const auto& g = inst.exec_graph;
    const std::size_t n = g.num_nodes();

    bool empty_band = false;
    bool any_weighted = false;
    double max_floor = 0.0;
    double min_cap = std::numeric_limits<double>::infinity();
    for (graph::NodeId v = 0; v < n; ++v) {
      if (g.weight(v) == 0.0) continue;
      if (plan.s_min > plan.caps[v]) {
        // effective_bounds: the requested floor exceeds this slot's cap —
        // the restricted relaxation is empty for this instance.
        empty_band = true;
        break;
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
    if ((any_weighted && common < max_floor) ||
        !within_speed_cap(common, min_cap)) {
      out[i] = Solution{};  // off the closed form: scalar numeric re-solve
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

    // Theorem 1's fork closed form, operation-for-operation the scalar
    // solve_fork: l is the parallel equivalent weight of the leaves.
    double sum_pow = 0.0;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (v == root) continue;
      sum_pow += std::pow(g.weight(v), plan.alpha);
    }
    const double l = sum_pow > 0.0 ? std::pow(sum_pow, 1.0 / plan.alpha) : 0.0;

    Solution& s = out[i];
    s.method = "closed-form-fork";
    s.speeds.assign(n, 0.0);

    const double s0_unconstrained = (l + w0) / d;
    double s0;
    double leaf_window;
    if (s0_unconstrained <= plan.s_max) {
      s0 = s0_unconstrained;
      leaf_window = l > 0.0 ? l / s0 : 0.0;
    } else {
      s0 = plan.s_max;
      leaf_window = d - w0 / plan.s_max;
      if (l > 0.0 && leaf_window <= 0.0) {
        s = infeasible_solution("closed-form-fork");
        continue;
      }
    }

    s.energy = 0.0;
    bool infeasible = false;
    if (w0 > 0.0) {
      if (!within_speed_cap(s0, plan.s_max)) {
        s = infeasible_solution("closed-form-fork");
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
      s = infeasible_solution("closed-form-fork");
      continue;
    }
    s.feasible = true;

    // The dispatcher's post-check: a feasible fork whose leaves run under
    // the s_crit floor falls back to the numeric solver. The kernel hands
    // those instances back to the scalar path (empty-method sentinel).
    if (violates_floor(inst, s, plan.floor)) s = Solution{};
  }
}

/// Tree kernel: solve_out_tree over the flattened composition plan. The
/// plan's order/CSR describe the evaluation graph (reversed for in-trees,
/// ids preserved), so weights, power models and output speeds are indexed
/// by original node id throughout. Infeasible results are emitted as-is —
/// the dispatcher returns solve_tree's infeasible solutions directly —
/// while feasible results under the s_crit floor are handed back.
void run_tree(const KernelPlan& plan, const Instance* const* instances,
              std::size_t count, Solution* out) {
  const CompositionPlan& comp = *plan.comp;
  const std::size_t n = comp.child_offset.size() - 1;
  auto& arena = util::Arena::scratch();
  std::vector<double> weq = arena.lease_doubles();
  std::vector<double> window = arena.lease_doubles();
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

  arena.recycle_doubles(std::move(weq));
  arena.recycle_doubles(std::move(window));
}

/// SP kernel: solve_sp over the flattened decomposition traversals. The
/// post-order pass is the recursive equivalent-weight fold unrolled
/// (children in child order before their parent); the pre-order pass
/// replays the window-assignment DFS, so leaves are visited — and energy
/// accumulates — in exactly the recursion's order. The dispatcher's
/// acceptance (Theorem 2 assumes s_max = +inf: take the SP answer only
/// when its top speed respects the cap, then the floor post-check) is
/// replicated; rejected instances are handed back.
void run_sp(const KernelPlan& plan, const Instance* const* instances,
            std::size_t count, Solution* out) {
  const CompositionPlan& comp = *plan.comp;
  const graph::SpTree& tree = *comp.sp_tree;
  const std::size_t m = tree.nodes.size();
  auto& arena = util::Arena::scratch();
  std::vector<double> weq = arena.lease_doubles();
  std::vector<double> window = arena.lease_doubles();

  for (std::size_t i = 0; i < count; ++i) {
    const Instance& inst = *instances[i];
    const auto& g = inst.exec_graph;
    const std::size_t n = g.num_nodes();
    Solution& s = out[i];

    weq.assign(m, 0.0);
    for (const std::uint32_t id : comp.post_order) {
      const auto& node = tree.nodes[id];
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
      weq[id] = w;
    }

    s.method = "series-parallel";
    s.feasible = true;
    s.speeds.assign(n, 0.0);
    s.energy = 0.0;

    window.assign(m, 0.0);
    window[tree.root] = inst.deadline;
    for (const std::uint32_t id : comp.pre_order) {
      const auto& node = tree.nodes[id];
      if (id != tree.root) {
        const std::uint32_t p = comp.parent[id];
        if (tree.nodes[p].kind == graph::SpKind::kSeries) {
          // An all-zero series subtree stops the recursion in the scalar
          // solver; a zero window here is equivalent, since every leaf
          // beneath it is weightless and skipped before the window check.
          window[id] =
              weq[p] == 0.0 ? 0.0 : window[p] * weq[id] / weq[p];
        } else {
          window[id] = window[p];
        }
      }
      if (node.kind != graph::SpKind::kLeaf || node.task == graph::kNoNode) {
        continue;
      }
      const double w = g.weight(node.task);
      if (w == 0.0) continue;
      util::require_numeric(window[id] > 0.0,
                            "sp solver: zero window for a weighted task");
      const double speed = w / window[id];
      s.speeds[node.task] = speed;
      s.energy += inst.power_of(node.task).task_energy(w, speed);
    }

    const double top =
        s.speeds.empty()
            ? 0.0
            : *std::max_element(s.speeds.begin(), s.speeds.end());
    if (!within_speed_cap(top, plan.s_max) ||
        violates_floor(inst, s, plan.floor)) {
      s = Solution{};  // cap or floor binds: scalar numeric re-solve
    }
  }

  arena.recycle_doubles(std::move(weq));
  arena.recycle_doubles(std::move(window));
}

/// Heterogeneous plan: only the serial closed forms survive heterogeneity
/// (solve_hetero), and only under the reduction — the exact-leaky route
/// waterfills or barriers per instance and stays scalar. A shared dynamic
/// exponent across every task slot makes the per-instance mixed-exponent
/// bailout in solve_chain_hetero unreachable regardless of which slots
/// carry weight.
std::optional<KernelPlan> plan_hetero(const Instance& instance,
                                      const model::ContinuousModel& continuous,
                                      const SolveOptions& options,
                                      KernelFamily family) {
  if (options.leakage == LeakageMode::kExact) return std::nullopt;
  if (family != KernelFamily::kChain) return std::nullopt;
  const auto& g = instance.exec_graph;
  const std::size_t n = g.num_nodes();

  const double alpha = instance.power_of(0).alpha();
  for (graph::NodeId v = 1; v < n; ++v) {
    if (instance.power_of(v).alpha() != alpha) return std::nullopt;
  }

  KernelPlan plan;
  plan.family = family;
  plan.hetero = true;
  plan.alpha = alpha;
  plan.inv_alpha = 1.0 / alpha;
  plan.s_min = options.continuous_s_min;
  plan.caps.resize(n);
  plan.floors.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    plan.caps[v] = std::min(continuous.s_max, instance.cap_of(v));
    plan.floors[v] = std::max(
        plan.s_min,
        std::min(instance.power_of(v).critical_speed(), plan.caps[v]));
  }
  return plan;
}

}  // namespace

std::shared_ptr<const CompositionPlan> build_tree_plan(const graph::Digraph& g,
                                                       bool in_tree) {
  auto plan = std::make_shared<CompositionPlan>();
  plan->reversed = in_tree;
  // Reversal preserves node ids, so weights/power models/speeds keep their
  // original indexing; only the adjacency flips, exactly as in solve_tree.
  const graph::Digraph reversed = in_tree ? g.reversed() : graph::Digraph{};
  const graph::Digraph& eval = in_tree ? reversed : g;

  auto order = graph::topological_order(eval);
  util::require(order.has_value(), "tree plan requires a DAG");
  plan->order = std::move(*order);

  const std::size_t n = eval.num_nodes();
  plan->child_offset.reserve(n + 1);
  plan->child_offset.push_back(0);
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto& succ = eval.successors(v);
    plan->child.insert(plan->child.end(), succ.begin(), succ.end());
    plan->child_offset.push_back(static_cast<std::uint32_t>(plan->child.size()));
  }
  plan->roots = eval.sources();
  return plan;
}

std::shared_ptr<const CompositionPlan> build_sp_plan(
    std::shared_ptr<const graph::SpTree> tree) {
  util::require(tree != nullptr, "sp plan requires a decomposition tree");
  auto plan = std::make_shared<CompositionPlan>();
  const auto& nodes = tree->nodes;
  const std::size_t m = nodes.size();
  const auto root = static_cast<std::uint32_t>(tree->root);

  plan->parent.assign(m, root);
  plan->pre_order.reserve(m);
  plan->post_order.reserve(m);

  std::vector<std::uint32_t> stack;
  // DFS pre-order with siblings left-to-right (children pushed reversed):
  // the window-assignment recursion's visit order.
  stack.push_back(root);
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    plan->pre_order.push_back(id);
    const auto& children = nodes[id].children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      plan->parent[*it] = id;
      stack.push_back(static_cast<std::uint32_t>(*it));
    }
  }
  // Post-order with children left-to-right before their parent (the
  // equivalent-weight fold's evaluation order): reverse of a parent-first,
  // siblings right-to-left DFS.
  stack.push_back(root);
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    plan->post_order.push_back(id);
    for (const std::size_t c : nodes[id].children) {
      stack.push_back(static_cast<std::uint32_t>(c));
    }
  }
  std::reverse(plan->post_order.begin(), plan->post_order.end());

  plan->sp_tree = std::move(tree);
  return plan;
}

std::optional<KernelPlan> plan_kernel(const Instance& instance,
                                      const model::EnergyModel& model,
                                      const SolveOptions& options,
                                      const KernelPlanHints& hints) {
  const auto* continuous = std::get_if<model::ContinuousModel>(&model);
  if (continuous == nullptr) return std::nullopt;
  // core::solve sends kDp on a sleep-enabled platform to the sleep-DP
  // oracle, never to a closed form.
  if (options.sleep_mode == SleepMode::kDp && instance.platform.has_sleep()) {
    return std::nullopt;
  }
  const auto& g = instance.exec_graph;
  const std::size_t n = g.num_nodes();
  if (n == 0 || instance.deadline <= 0.0) return std::nullopt;

  // The engine's cached analysis, or graph::analyze itself. Joins are
  // in-trees structurally but route to solve_join: they stay scalar.
  const graph::ShapeInfo info =
      hints.shape ? *hints.shape : graph::analyze(g);

  KernelPlan plan;
  switch (info.shape) {
    case graph::GraphShape::kSingleTask:
      plan.family = KernelFamily::kSingle;
      break;
    case graph::GraphShape::kChain:
      plan.family = KernelFamily::kChain;
      break;
    case graph::GraphShape::kFork:
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
      return std::nullopt;  // empty, join, general: scalar routes
  }

  if (!instance.homogeneous_tasks()) {
    return plan_hetero(instance, *continuous, options, plan.family);
  }

  const auto& power = instance.power_of(0);
  if (options.leakage == LeakageMode::kExact &&
      (plan.family == KernelFamily::kFork ||
       plan.family == KernelFamily::kTree ||
       plan.family == KernelFamily::kSp) &&
      power.has_static_power()) {
    // Slack-bearing leaky parallel shape: the exact route runs a waterfill
    // or barrier pass on top of the reduction — not batchable.
    return std::nullopt;
  }

  plan.s_max = std::min(continuous->s_max, instance.cap_of(0));
  if (options.continuous_s_min > plan.s_max) {
    return std::nullopt;  // collapsed speed range: scalar special case
  }
  plan.floor = std::max(options.continuous_s_min,
                        std::min(power.critical_speed(), plan.s_max));
  if (plan.family == KernelFamily::kFork) {
    plan.root = g.sources().front();
    plan.alpha = power.alpha();
  }
  if (plan.family == KernelFamily::kTree ||
      plan.family == KernelFamily::kSp) {
    plan.alpha = power.alpha();
    plan.inv_alpha = 1.0 / plan.alpha;
    // Reuse the engine's cached composition plan when it matches this
    // family; otherwise flatten the topology now (once per run).
    if (plan.family == KernelFamily::kTree) {
      if (hints.comp && !hints.comp->order.empty()) {
        plan.comp = hints.comp;
      } else {
        plan.comp =
            build_tree_plan(g, info.shape == graph::GraphShape::kInTree);
      }
    } else {
      if (hints.comp && hints.comp->sp_tree) {
        plan.comp = hints.comp;
      } else {
        plan.comp = build_sp_plan(info.sp_tree);
      }
    }
  }
  return plan;
}

bool kernel_run_compatible(const Instance& head, const Instance& other) {
  if (other.deadline <= 0.0) return false;
  const auto& a = head.exec_graph;
  const auto& b = other.exec_graph;
  const std::size_t n = a.num_nodes();
  if (b.num_nodes() != n || b.num_edges() != a.num_edges()) return false;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (a.successors(v) != b.successors(v)) return false;
  }
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
