#include "core/continuous/waterfill.hpp"

#include <algorithm>
#include <cmath>

namespace reclaim::core {

Solution solve_chain_waterfill(const Instance& instance,
                               const std::vector<double>& caps,
                               const std::vector<double>& floors) {
  static constexpr const char* kMethod = "waterfill-exact-leaky";
  const auto& g = instance.exec_graph;
  const std::size_t n = g.num_nodes();
  const double deadline = instance.deadline;

  // KKT speed of task v under deadline multiplier lambda, clamped into its
  // effective band. floors_v <= caps_v by construction (effective_bounds).
  const auto speed_at = [&](graph::NodeId v, double lambda) {
    const auto& power = instance.power_of(v);
    const double alpha = power.alpha();
    const double s =
        std::pow((power.p_static() + lambda) / (alpha - 1.0), 1.0 / alpha);
    return std::clamp(s, std::min(floors[v], caps[v]), caps[v]);
  };
  const auto makespan_at = [&](double lambda) {
    double t = 0.0;
    for (graph::NodeId v = 0; v < n; ++v) {
      const double w = g.weight(v);
      if (w > 0.0) t += w / speed_at(v, lambda);
    }
    return t;
  };

  double lambda = 0.0;
  std::size_t iterations = 0;
  if (makespan_at(0.0) > deadline) {
    // Bracket the root of T(lambda) = D by doubling, then bisect keeping
    // the T <= D side so the returned schedule is always deadline-feasible.
    double lo = 0.0;
    double hi = 1.0;
    std::size_t doublings = 0;
    while (makespan_at(hi) > deadline && doublings < 200) {
      lo = hi;
      hi *= 2.0;
      ++doublings;
    }
    if (makespan_at(hi) > deadline) {
      // Every speed is pinned at its cap and the chain still overruns:
      // the all-at-cap schedule is the only candidate. Within the shared
      // feasibility tolerance it counts (the caller's reduction solve has
      // already settled strict infeasibility).
      double at_cap = 0.0;
      std::vector<double> speeds(n, 0.0);
      for (graph::NodeId v = 0; v < n; ++v) {
        const double w = g.weight(v);
        if (w == 0.0) continue;
        speeds[v] = caps[v];
        at_cap += w / caps[v];
      }
      if (!within_deadline(at_cap, deadline)) {
        return infeasible_solution(kMethod);
      }
      return speeds_solution(instance, speeds, kMethod);
    }
    while (hi - lo > 1e-15 * std::max(1.0, hi) && iterations < 500) {
      const double mid = 0.5 * (lo + hi);
      if (makespan_at(mid) > deadline) {
        lo = mid;
      } else {
        hi = mid;
      }
      ++iterations;
    }
    lambda = hi;
  }

  std::vector<double> speeds(n, 0.0);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (g.weight(v) > 0.0) speeds[v] = speed_at(v, lambda);
  }
  Solution s = speeds_solution(instance, speeds, kMethod);
  s.iterations = iterations;
  return s;
}

Solution solve_fork_waterfill(const Instance& instance,
                              const std::vector<double>& caps,
                              const std::vector<double>& floors) {
  static constexpr const char* kMethod = "waterfill-exact-leaky";
  const auto& g = instance.exec_graph;
  const std::size_t n = g.num_nodes();
  const double deadline = instance.deadline;
  const graph::NodeId root = g.sources().front();
  const double w0 = g.weight(root);

  // lambda = 0 KKT speed of task v, clamped into its band: the speed the
  // task would pick with no deadline pressure (its clamped critical
  // speed). floors_v <= caps_v by construction (effective_bounds).
  const auto free_speed = [&](graph::NodeId v) {
    const auto& power = instance.power_of(v);
    const double alpha = power.alpha();
    const double s = std::pow(power.p_static() / (alpha - 1.0), 1.0 / alpha);
    return std::clamp(s, std::min(floors[v], caps[v]), caps[v]);
  };
  // d/dd of the duration-charged busy cost
  //   c_v(d) = P_stat_v * d + w_v^alpha * d^(1 - alpha):
  // negative while the task runs faster than its critical speed.
  const auto cost_slope = [&](graph::NodeId v, double d) {
    const auto& power = instance.power_of(v);
    const double alpha = power.alpha();
    return power.p_static() -
           (alpha - 1.0) * std::pow(g.weight(v) / d, alpha);
  };

  // Weighted leaves with their free (unconstrained-optimal) durations; a
  // leaf without static power has an infinite free duration and is always
  // window-bound.
  std::vector<graph::NodeId> leaves;
  std::vector<double> leaf_free_speed;
  std::vector<double> free_duration;
  double t_lo = 0.0;  // minimal shared leaf window: max_v w_v / cap_v
  for (graph::NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    const double w = g.weight(v);
    if (w == 0.0) continue;
    leaves.push_back(v);
    leaf_free_speed.push_back(free_speed(v));
    free_duration.push_back(w / leaf_free_speed.back());
    t_lo = std::max(t_lo, w / caps[v]);
  }

  const double d0_lo = w0 > 0.0 ? w0 / caps[root] : 0.0;
  const double d0_hi = deadline - t_lo;

  if (d0_lo > d0_hi) {
    // Even all-at-cap overruns the deadline strictly; within the shared
    // feasibility tolerance the at-cap schedule still counts (the caller's
    // reduction solve has already settled strict infeasibility).
    if (!within_deadline(d0_lo + t_lo, deadline)) {
      return infeasible_solution(kMethod);
    }
    std::vector<double> speeds(n, 0.0);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (g.weight(v) > 0.0) speeds[v] = caps[v];
    }
    return speeds_solution(instance, speeds, kMethod);
  }

  // C'(d0): the source's marginal cost plus, for every leaf whose free
  // duration exceeds the remaining window D - d0, the (negated) marginal
  // cost of squeezing it. Window-bound leaves always run at or above their
  // critical speed, so each term is non-negative and C' is non-decreasing
  // — the bisection is exact. A weightless source contributes nothing and
  // the optimum collapses to d0 = d0_lo = 0.
  const auto slope = [&](double d0) {
    double phi = w0 > 0.0 ? cost_slope(root, d0) : 0.0;
    const double window = deadline - d0;
    for (std::size_t k = 0; k < leaves.size(); ++k) {
      if (window < free_duration[k]) phi -= cost_slope(leaves[k], window);
    }
    return phi;
  };

  double d0 = d0_lo;
  std::size_t iterations = 0;
  if (slope(d0_lo) >= 0.0) {
    d0 = d0_lo;
  } else if (slope(d0_hi) <= 0.0) {
    d0 = d0_hi;
  } else {
    double lo = d0_lo;
    double hi = d0_hi;
    while (hi - lo > 1e-15 * std::max(1.0, hi) && iterations < 500) {
      const double mid = 0.5 * (lo + hi);
      if (slope(mid) < 0.0) {
        lo = mid;
      } else {
        hi = mid;
      }
      ++iterations;
    }
    d0 = lo;  // keep the larger-leaf-window side
  }

  std::vector<double> speeds(n, 0.0);
  if (w0 > 0.0) {
    speeds[root] =
        std::clamp(w0 / d0, std::min(floors[root], caps[root]), caps[root]);
  }
  const double window = deadline - d0;
  for (std::size_t k = 0; k < leaves.size(); ++k) {
    const graph::NodeId v = leaves[k];
    // Duration min(free duration, window) as a speed, with the cap clamp
    // shaving fp slack.
    speeds[v] =
        std::min(std::max(g.weight(v) / window, leaf_free_speed[k]), caps[v]);
  }
  Solution s = speeds_solution(instance, speeds, kMethod);
  s.iterations = iterations;
  return s;
}

}  // namespace reclaim::core
