#include "core/continuous/numeric_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "graph/topo.hpp"
#include "opt/barrier.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"

namespace reclaim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// sum w_i^alpha_i / d_i^(alpha_i-1) over positive-weight tasks; the
/// duration of task i lives at variable index n + i, and alpha_i is the
/// dynamic exponent of the processor executing task i (one shared value on
/// a homogeneous platform). Each term is convex in d_i on d_i > 0, so the
/// separable sum stays a valid barrier objective under heterogeneous
/// exponents. By default the *dynamic* objective even under a
/// leakage-aware power model: leakage enters through the s_crit speed
/// floors plus energy bookkeeping (the s_crit reduction, DESIGN.md),
/// keeping all solver families consistent. With exact_leakage the linear
/// duration charge P_stat_i * d_i joins the objective, making it the true
/// busy energy (statics_ holds zeros otherwise, so the reduction path adds
/// exactly 0.0 everywhere and stays bit-identical).
class EnergyObjective final : public opt::ConvexObjective {
 public:
  EnergyObjective(const Instance& instance, bool exact_leakage)
      : n_(instance.exec_graph.num_nodes()),
        weights_(n_),
        powered_(n_),
        alphas_(n_),
        statics_(n_) {
    for (graph::NodeId v = 0; v < n_; ++v) {
      weights_[v] = instance.exec_graph.weight(v);
      alphas_[v] = instance.power_of(v).alpha();
      powered_[v] = std::pow(weights_[v], alphas_[v]);
      statics_[v] = exact_leakage ? instance.power_of(v).p_static() : 0.0;
    }
  }

  [[nodiscard]] double value(const la::Vector& x) const override {
    double e = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      const double w = weights_[i];
      if (w == 0.0) continue;
      const double d = x[n_ + i];
      if (d <= 0.0) return kInf;
      e += powered_[i] / std::pow(d, alphas_[i] - 1.0) + statics_[i] * d;
    }
    return e;
  }

  void add_gradient(const la::Vector& x, la::Vector& grad) const override {
    for (std::size_t i = 0; i < n_; ++i) {
      const double w = weights_[i];
      if (w == 0.0) continue;
      const double d = x[n_ + i];
      const double alpha = alphas_[i];
      grad[n_ + i] +=
          -(alpha - 1.0) * powered_[i] / std::pow(d, alpha) + statics_[i];
    }
  }

  void add_hessian_diagonal(const la::Vector& x,
                            la::Vector& diag) const override {
    for (std::size_t i = 0; i < n_; ++i) {
      const double w = weights_[i];
      if (w == 0.0) continue;
      const double d = x[n_ + i];
      const double alpha = alphas_[i];
      diag[n_ + i] +=
          alpha * (alpha - 1.0) * powered_[i] / std::pow(d, alpha + 1.0);
    }
  }

 private:
  std::size_t n_;
  std::vector<double> weights_;
  std::vector<double> powered_;  ///< w_i^alpha_i
  std::vector<double> alphas_;
  std::vector<double> statics_;
};

}  // namespace

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

Solution solve_numeric(const Instance& instance,
                       const model::ContinuousModel& model,
                       const NumericOptions& options) {
  const auto& g = instance.exec_graph;
  const std::size_t n = g.num_nodes();
  const double deadline = instance.deadline;
  const std::string method =
      options.exact_leakage ? "numeric-exact-leaky" : "numeric-barrier";

  util::require(options.s_min >= 0.0 && options.s_min <= model.s_max,
                "invalid speed range");
  std::vector<double> caps;
  std::vector<double> floors;
  if (!effective_bounds(instance, model, options.s_min, caps, floors)) {
    return infeasible_solution(method);
  }
  // A floor within tolerance of its cap pins the task: no barrier
  // constraint is added for it and the extracted speed is clamped instead.
  const auto pinned = [&](graph::NodeId v) {
    return floors[v] >= caps[v] * (1.0 - 1e-9);
  };

  const double critical = critical_weight(g);
  if (critical == 0.0) {
    // No tasks, or all-zero weights: nothing to run.
    return speeds_solution(instance, std::vector<double>(n, 0.0), method);
  }

  // Feasibility: the fastest schedule runs every task at its cap.
  std::vector<double> min_durations(n, 0.0);
  bool any_uncapped_weighted = false;
  bool all_pinned = true;
  for (graph::NodeId v = 0; v < n; ++v) {
    const double w = g.weight(v);
    if (w == 0.0) continue;
    all_pinned = all_pinned && pinned(v);
    if (caps[v] == kInf) {
      any_uncapped_weighted = true;
    } else {
      min_durations[v] = w / caps[v];
    }
  }
  // One shared tolerance on both sides of the boundary: an exactly-tight
  // instance whose fastest makespan lands a few ulps past D (the sum
  // w_i/cap_i rounds differently than the D = W/s_max the caller computed)
  // is still feasible, pinned at the caps below.
  const double min_makespan =
      sched::compute_timing(g, min_durations).makespan;
  if (!within_deadline(min_makespan, deadline)) {
    return infeasible_solution(method);
  }
  // Boundary: the only candidate pins every task at its cap. With an
  // uncapped weighted task the optimum does not exist (speeds diverge).
  // When every weighted task's floor pins it, the speed range collapses
  // to (almost) a single point: the caps again.
  if (min_makespan >= deadline * (1.0 - kFeasibilityRelTol) || all_pinned) {
    if (any_uncapped_weighted) return infeasible_solution(method);
    return speeds_solution(instance, caps, method);
  }

  // Strictly feasible start point. The uniform-speed start gives each
  // weighted task a speed strictly inside (lower_v, cap_v), where lower_v
  // is the minimal feasible uniform speed critical/D raised to the task's
  // floor: every duration is below w_v D / critical, so the makespan
  // stays below critical / slowest < D. On shared bounds this is the one
  // uniform speed sqrt(lower * cap).
  la::Vector x0(2 * n, 0.0);
  std::vector<double> durations(n, 0.0);
  const double uniform = critical / deadline;
  double slowest = kInf;
  for (graph::NodeId v = 0; v < n; ++v) {
    const double w = g.weight(v);
    if (w == 0.0) continue;
    const double lower = pinned(v) ? uniform : std::max(uniform, floors[v]);
    if (lower >= caps[v] * (1.0 - 1e-12)) {
      slowest = 0.0;  // a cap below the uniform speed: no uniform start
      break;
    }
    const double speed =
        caps[v] == kInf ? 1.4 * lower : std::sqrt(lower * caps[v]);
    durations[v] = w / speed;
    slowest = std::min(slowest, speed);
  }
  double pad = 0.0;
  if (slowest > 0.0) {
    pad = (deadline - critical / slowest) / (8.0 * static_cast<double>(n + 1));
  } else {
    // Fallback: stretch the all-at-cap durations a little and slow
    // everything to a uniform speed chosen so the makespan keeps a margin:
    //   d_v = max(w_v/s_start, (1+theta) w_v/cap_v)
    // has makespan <= critical/s_start + (1+theta) min_makespan < D.
    const double theta =
        min_makespan > 0.0
            ? std::min(0.01, 0.25 * (deadline / min_makespan - 1.0))
            : 0.01;
    const double margin = deadline - (1.0 + theta) * min_makespan;
    const double s_start = critical / (0.5 * margin);
    pad = margin / (16.0 * static_cast<double>(n + 1));
    for (graph::NodeId v = 0; v < n; ++v) {
      const double w = g.weight(v);
      if (w == 0.0) continue;
      durations[v] =
          std::max(w / s_start, (1.0 + theta) * min_durations[v]);
      // A floor row upper-bounds the duration (d_v <= w_v / floor); pull
      // a too-slow start strictly inside the band. The midpoint of
      // [w/cap, w/floor] is strictly feasible for both sides (an unpinned
      // floor sits below its cap), and shrinking a duration only shortens
      // the makespan, preserving the deadline margin.
      if (floors[v] > 0.0 && !pinned(v)) {
        const double d_max = w / floors[v];
        if (durations[v] >= d_max) {
          durations[v] = 0.5 * (min_durations[v] + d_max);
        }
      }
    }
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    if (g.weight(v) == 0.0) durations[v] = pad * 0.5;
  }

  // Variables: x[0..n) completion times, x[n..2n) durations.
  const auto order = graph::topological_order(g);
  util::require(order.has_value(), "numeric solver requires a DAG");
  // Stack completion times in topological order with a per-position pad so
  // every precedence residual is strictly positive.
  {
    std::vector<double> earliest(n, 0.0);
    std::size_t position = 0;
    for (graph::NodeId v : *order) {
      double start = 0.0;
      for (graph::NodeId p : g.predecessors(v)) {
        start = std::max(start, earliest[p]);
      }
      earliest[v] = start + durations[v];
      x0[v] = earliest[v] + pad * static_cast<double>(position + 1);
      x0[n + v] = durations[v];
      ++position;
    }
  }

  // Constraint assembly (all as terms . x <= rhs).
  std::vector<opt::SparseInequality> ineqs;
  const auto add_ineq =
      [&](std::initializer_list<std::pair<std::size_t, double>> terms,
          double rhs) { ineqs.push_back({terms, rhs}); };
  for (const graph::Edge& e : g.edges()) {
    // t_i + d_j - t_j <= 0.
    add_ineq({{e.from, 1.0}, {n + e.to, 1.0}, {e.to, -1.0}}, 0.0);
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    // d_v - t_v <= 0 (start time >= 0).
    add_ineq({{n + v, 1.0}, {v, -1.0}}, 0.0);
    // t_v <= D.
    add_ineq({{v, 1.0}}, deadline);
    // -d_v <= -w_v / cap_v  (speed cap; reduces to d_v >= 0 when uncapped).
    add_ineq({{n + v, -1.0}}, -min_durations[v]);
    // d_v <= w_v / floor_v (speed floor: Theorem 5's restricted
    // relaxation raised to the task's s_crit; none for a pinned task).
    const double w = g.weight(v);
    if (w > 0.0 && floors[v] > 0.0 && !pinned(v)) {
      add_ineq({{n + v, 1.0}}, w / floors[v]);
    }
  }

  const EnergyObjective objective(instance, options.exact_leakage);
  const opt::BarrierResult result = opt::minimize_with_barrier(
      objective, ineqs, std::move(x0), {.rel_gap = options.rel_gap});

  Solution s;
  s.method = method;
  s.feasible = true;
  s.iterations = result.newton_steps;
  s.speeds.assign(n, 0.0);
  s.energy = 0.0;
  for (graph::NodeId v = 0; v < n; ++v) {
    const double w = g.weight(v);
    if (w == 0.0) continue;
    // Shave barrier slack off the cap and the floor; for a pinned task,
    // which has no floor row, the floor clamp realizes its floor. It can
    // only shorten the schedule.
    const double speed =
        std::max(std::min(w / result.x[n + v], caps[v]), floors[v]);
    s.speeds[v] = speed;
    s.energy += instance.power_of(v).task_energy(w, speed);
  }
  return s;
}

}  // namespace reclaim::core
