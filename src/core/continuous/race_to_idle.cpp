#include "core/continuous/race_to_idle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/schedule.hpp"
#include "util/error.hpp"

namespace reclaim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Log-spaced speed-up factors probed between 1 and the cap ratio.
constexpr std::size_t kGrid = 48;
/// Golden-section iterations refining the best grid bracket.
constexpr std::size_t kRefineIters = 48;

/// Busy + idle platform energy of the crawl schedule scaled by k.
struct Evaluation {
  double busy = kInf;
  double idle = kInf;

  [[nodiscard]] double total() const noexcept { return busy + idle; }
};

Evaluation evaluate_scaled(const Instance& instance,
                           const sched::Mapping& mapping,
                           const std::vector<double>& base_speeds, double k,
                           double s_max) {
  const auto& g = instance.exec_graph;
  Evaluation eval;
  eval.busy = 0.0;
  std::vector<double> durations(g.num_nodes(), 0.0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const double w = g.weight(v);
    if (w == 0.0) continue;
    const double cap = std::min(s_max, instance.cap_of(v));
    const double speed = std::min(base_speeds[v] * k, cap);
    eval.busy += instance.power_of(v).task_energy(w, speed);
    durations[v] = w / speed;
  }
  eval.idle = sched::idle_energy(g, mapping, durations, instance.deadline,
                                 instance.platform);
  return eval;
}

}  // namespace

RaceToIdleResult solve_race_to_idle(const Instance& instance,
                                    const model::ContinuousModel& model,
                                    const sched::Mapping& mapping,
                                    const RaceToIdleOptions& options) {
  RaceToIdleResult result;
  result.solution = solve_continuous(instance, model, options.continuous);
  if (!result.solution.feasible) return result;

  result.crawl.busy = result.solution.energy;
  result.chosen = result.crawl;
  if (!instance.platform.has_sleep()) {
    // No idle cost anywhere on the platform: the crawl is the whole
    // answer, bit-identically.
    return result;
  }

  const auto& g = instance.exec_graph;
  const auto eval_at = [&](double k) {
    return evaluate_scaled(instance, mapping, result.solution.speeds, k,
                           model.s_max);
  };

  const Evaluation crawl_eval = eval_at(1.0);
  result.crawl.idle = crawl_eval.idle;
  result.chosen = result.crawl;

  // Cap the speed-up search: never past the point where *every* task is
  // pinned at its cap (evaluate_scaled clamps per task, so a cap-pinned
  // task simply stops speeding up while the rest keep racing — a
  // big.LITTLE platform's floor-pinned little cores must not freeze the
  // big cores' race), and — when uncapped tasks exist — never past the
  // point where their guaranteed busy increase (the uncapped dynamic part
  // alone grows like k^(alpha-1)) already exceeds everything the idle
  // charge could possibly save. The worth bound sums the dynamic term
  // over *uncapped* tasks only: a capped task's dynamic cost stops
  // growing once it pins, so counting it would overstate the guaranteed
  // increase and could truncate (or entirely skip) a profitable race —
  // e.g. a heavy task already sitting at its cap contributes nothing to
  // the increase at any k. Per-task exponents use the smallest alpha —
  // the slowest-growing dynamic term. Both choices can only widen the
  // searched range, never unsoundly shrink it.
  double top = 0.0;
  double dynamic_uncapped = 0.0;
  double alpha_min = kInf;
  double k_pin = 1.0;
  bool any_uncapped = false;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const double w = g.weight(v);
    if (w == 0.0) continue;
    const double speed = result.solution.speeds[v];
    const double alpha = instance.power_of(v).alpha();
    top = std::max(top, speed);
    alpha_min = std::min(alpha_min, alpha);
    const double cap = std::min(model.s_max, instance.cap_of(v));
    if (cap == kInf) {
      any_uncapped = true;
      dynamic_uncapped += w * std::pow(speed, alpha - 1.0);
    } else if (speed > 0.0) {
      k_pin = std::max(k_pin, cap / speed);
    }
  }
  if (top <= 0.0 || crawl_eval.idle <= 0.0) {
    return result;  // nothing to run or nothing to save
  }
  // Guaranteed net busy increase at factor k is at least
  // dynamic_uncapped * (k^(alpha_min-1) - 1) - static_share (the leakage
  // share can shrink by at most itself), so past k_worth the race cannot
  // recoup the idle charge even if it drove it to zero. On a fully
  // capped platform the schedule stops changing beyond k_pin, so the
  // search is bounded there instead.
  double k_hi = k_pin;
  if (any_uncapped && dynamic_uncapped > 0.0) {
    k_hi = std::pow((crawl_eval.busy + crawl_eval.idle) / dynamic_uncapped,
                    1.0 / (alpha_min - 1.0));
  }
  if (!(k_hi > 1.0)) return result;

  // Log-spaced grid over [1, k_hi], then golden-section refinement around
  // the best bracket. The objective is piecewise smooth (idle/sleep min()
  // kinks as gaps cross the break-even length), so the grid localizes the
  // basin and the refinement polishes it; both are deterministic.
  const double log_hi = std::log(k_hi);
  const auto grid_k = [&](std::size_t i) {
    return std::exp(log_hi * static_cast<double>(i) /
                    static_cast<double>(kGrid - 1));
  };
  double best_k = 1.0;
  Evaluation best = crawl_eval;
  std::size_t best_index = 0;
  std::size_t evals = 1;
  for (std::size_t i = 1; i < kGrid; ++i) {
    const double k = grid_k(i);
    const Evaluation e = eval_at(k);
    ++evals;
    if (e.total() < best.total()) {
      best = e;
      best_k = k;
      best_index = i;
    }
  }
  {
    double lo = best_index == 0 ? 1.0 : grid_k(best_index - 1);
    double hi = best_index + 1 < kGrid ? grid_k(best_index + 1) : k_hi;
    constexpr double kGolden = 0.6180339887498949;
    double a = hi - kGolden * (hi - lo);
    double b = lo + kGolden * (hi - lo);
    Evaluation fa = eval_at(a);
    Evaluation fb = eval_at(b);
    evals += 2;
    for (std::size_t it = 0; it < kRefineIters; ++it) {
      if (fa.total() <= fb.total()) {
        hi = b;
        b = a;
        fb = fa;
        a = hi - kGolden * (hi - lo);
        fa = eval_at(a);
      } else {
        lo = a;
        a = b;
        fa = fb;
        b = lo + kGolden * (hi - lo);
        fb = eval_at(b);
      }
      ++evals;
    }
    for (const auto& [k, e] :
         {std::pair{a, fa}, std::pair{b, fb}}) {
      if (e.total() < best.total()) {
        best = e;
        best_k = k;
      }
    }
  }
  // Strict improvement only: ties (and fp noise) keep the crawl, so a
  // zero-effect sleep spec can never perturb the returned schedule.
  if (best.total() >= crawl_eval.total() * (1.0 - 1e-12)) return result;

  result.solution.iterations += evals;  // charged when raced
  result.raced = true;
  result.speedup = best_k;
  result.chosen.busy = best.busy;
  result.chosen.idle = best.idle;
  result.solution.method = "race-to-idle";
  result.solution.energy = best.busy;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.weight(v) == 0.0) continue;
    result.solution.speeds[v] =
        std::min(result.solution.speeds[v] * best_k,
                 std::min(model.s_max, instance.cap_of(v)));
  }
  return result;
}

}  // namespace reclaim::core
