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

Solution solve_numeric(const Instance& instance,
                       const model::ContinuousModel& model,
                       const NumericOptions& options) {
  const auto& g = instance.exec_graph;
  const std::size_t n = g.num_nodes();
  const double deadline = instance.deadline;
  const double s_min = options.s_min;
  const bool heterogeneous = !options.s_max_per_task.empty();
  const std::string method =
      options.exact_leakage ? "numeric-exact-leaky" : "numeric-barrier";

  util::require(s_min >= 0.0 && s_min <= model.s_max, "invalid speed range");
  if (heterogeneous) {
    util::require(options.s_max_per_task.size() == n,
                  "one per-task cap per task required");
    util::require(s_min == 0.0,
                  "per-task caps cannot be combined with a speed floor");
    for (double c : options.s_max_per_task)
      util::require(c > 0.0, "per-task caps must be positive");
  }
  const auto cap = [&](graph::NodeId v) {
    return heterogeneous ? std::min(model.s_max, options.s_max_per_task[v])
                         : model.s_max;
  };

  // Per-task floors (the heterogeneous route's s_crit reduction). A floor
  // within tolerance of its cap pins the task; no barrier constraint is
  // added for it and the extracted speed is clamped up instead.
  const bool per_task_floors = !options.s_min_per_task.empty();
  if (per_task_floors) {
    util::require(heterogeneous,
                  "per-task floors require per-task caps alongside");
    util::require(options.s_min_per_task.size() == n,
                  "one per-task floor per task required");
    for (graph::NodeId v = 0; v < n; ++v) {
      const double f = options.s_min_per_task[v];
      util::require(f >= 0.0, "per-task floors must be non-negative");
      util::require(f <= cap(v) * (1.0 + kFeasibilityRelTol),
                    "per-task floor exceeds the task's speed cap");
    }
  }
  const auto floor_of = [&](graph::NodeId v) {
    return per_task_floors ? options.s_min_per_task[v] : 0.0;
  };
  // True when task v's floor is strictly below its cap and therefore
  // enters the barrier as a d_v <= w_v / floor constraint.
  const auto floor_active = [&](graph::NodeId v) {
    const double f = floor_of(v);
    return f > 0.0 && f < cap(v) * (1.0 - 1e-9);
  };

  if (n == 0) {
    Solution s;
    s.method = method;
    s.feasible = true;
    s.energy = 0.0;
    return s;
  }

  const double critical = critical_weight(g);
  if (critical == 0.0) {
    // All-zero weights: nothing to run.
    return speeds_solution(instance, std::vector<double>(n, 0.0), method);
  }

  // Feasibility: the fastest schedule runs every task at its cap.
  std::vector<double> min_durations(n, 0.0);
  bool any_uncapped_weighted = false;
  for (graph::NodeId v = 0; v < n; ++v) {
    const double w = g.weight(v);
    if (w == 0.0) continue;
    if (cap(v) == kInf) {
      any_uncapped_weighted = true;
    } else {
      min_durations[v] = w / cap(v);
    }
  }
  // One shared tolerance on both sides of the boundary: an exactly-tight
  // instance whose fastest makespan lands a few ulps past D (the sum
  // w_i/cap_i rounds differently than the D = W/s_max the caller computed)
  // is still feasible, pinned at the caps below.
  const double min_makespan =
      sched::compute_timing(g, min_durations).makespan;
  if (!within_deadline(min_makespan, deadline)) return infeasible_solution(method);
  if (min_makespan >= deadline * (1.0 - kFeasibilityRelTol)) {
    // Boundary: the only candidate pins every task at its cap. With an
    // uncapped weighted task the optimum does not exist (speeds diverge).
    if (any_uncapped_weighted) return infeasible_solution(method);
    std::vector<double> speeds(n, 0.0);
    for (graph::NodeId v = 0; v < n; ++v) speeds[v] = cap(v);
    return speeds_solution(instance, speeds, method);
  }

  // Strictly feasible start point.
  la::Vector x0(2 * n, 0.0);
  std::vector<double> durations(n, 0.0);
  double pad = 0.0;
  if (!heterogeneous) {
    // Uniform speed strictly between the minimal feasible uniform speed
    // and the cap.
    const double lower = std::max(critical / deadline, s_min);
    const double upper = model.s_max;
    if (lower >= upper * (1.0 - 1e-12)) {
      // The speed range collapses to (almost) a single point.
      return speeds_solution(instance, std::vector<double>(n, upper), method);
    }
    const double s_start = upper == kInf ? 1.4 * lower : std::sqrt(lower * upper);
    const double target_makespan = critical / s_start;
    pad = (deadline - target_makespan) / (8.0 * static_cast<double>(n + 1));
    for (graph::NodeId v = 0; v < n; ++v) {
      const double w = g.weight(v);
      durations[v] = w > 0.0 ? w / s_start : pad * 0.5;
    }
  } else {
    // Per-task caps: stretch the all-at-cap durations a little and slow
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
      durations[v] = w > 0.0
                         ? std::max(w / s_start, (1.0 + theta) * min_durations[v])
                         : pad * 0.5;
      // An active floor upper-bounds the duration (d_v <= w_v / floor);
      // pull a too-slow start strictly inside the band. The midpoint of
      // [w/cap, w/floor] is strictly feasible for both sides (floor_active
      // guarantees floor < cap), and shrinking a duration only shortens
      // the makespan, preserving the deadline margin.
      if (w > 0.0 && floor_active(v)) {
        const double d_max = w / floor_of(v);
        if (durations[v] >= d_max) {
          durations[v] = 0.5 * (min_durations[v] + d_max);
        }
      }
    }
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
      for (graph::NodeId p : g.predecessors(v)) start = std::max(start, earliest[p]);
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
    // d_v <= w_v / s_min (speed floor: Theorem 5's restricted relaxation,
    // or a heterogeneous platform's per-task s_crit floor).
    const double w = g.weight(v);
    if (w > 0.0 && s_min > 0.0) {
      add_ineq({{n + v, 1.0}}, w / s_min);
    }
    if (w > 0.0 && floor_active(v)) {
      add_ineq({{n + v, 1.0}}, w / floor_of(v));
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
    double speed = w / result.x[n + v];
    speed = std::min(speed, cap(v));  // shave barrier slack off the cap
    if (s_min > 0.0) speed = std::max(speed, s_min);  // ...and off the floor
    if (per_task_floors) {
      // Pinned tasks (floor ~ cap) have no barrier constraint; this clamp
      // realizes their floor. It can only shorten the schedule.
      speed = std::max(speed, std::min(floor_of(v), cap(v)));
    }
    s.speeds[v] = speed;
    s.energy += instance.power_of(v).task_energy(w, speed);
  }
  return s;
}

}  // namespace reclaim::core
