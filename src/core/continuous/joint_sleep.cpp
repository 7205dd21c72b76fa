#include "core/continuous/joint_sleep.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "sched/schedule.hpp"
#include "util/error.hpp"

namespace reclaim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kGolden = 0.6180339887498949;
/// Strict-improvement guard: ties and fp noise never replace the
/// incumbent, so the race anchor rides through untouched unless the
/// refinement genuinely wins (mirrors race_to_idle's acceptance).
constexpr double kImprove = 1.0 - 1e-12;
/// Refine rounds (the loop exits early once a round finds no strict
/// improvement) and golden-section iterations per 1-D move.
constexpr std::size_t kRounds = 8;
constexpr std::size_t kRefineIters = 32;

/// Whole-platform energy of one speed assignment, evaluated exactly:
/// per-task busy energy plus the idle/sleep charges of every gap of the
/// earliest-start schedule. Infeasible (deadline violation, non-positive
/// speed) evaluations report feasible == false with an infinite total.
struct Evaluation {
  double busy = kInf;
  double idle = kInf;
  bool feasible = false;

  [[nodiscard]] double total() const noexcept { return busy + idle; }
};

class Evaluator {
 public:
  Evaluator(const Instance& instance, const sched::Mapping& mapping,
            double window)
      : instance_(instance), mapping_(mapping), window_(window) {}

  Evaluation operator()(const std::vector<double>& speeds) {
    ++evals_;
    const auto& g = instance_.exec_graph;
    Evaluation e;
    std::vector<double> durations(g.num_nodes(), 0.0);
    double busy = 0.0;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const double w = g.weight(v);
      if (w == 0.0) continue;
      const double s = speeds[v];
      if (!(s > 0.0)) return e;
      busy += instance_.power_of(v).task_energy(w, s);
      durations[v] = w / s;
    }
    const sched::Timing timing = sched::compute_timing(g, durations);
    if (!within_deadline(timing.makespan, window_)) return e;
    e.feasible = true;
    e.busy = busy;
    e.idle = sched::idle_energy(g, mapping_, durations, window_,
                                instance_.platform);
    return e;
  }

  [[nodiscard]] std::size_t evals() const noexcept { return evals_; }

 private:
  const Instance& instance_;
  const sched::Mapping& mapping_;
  double window_;
  std::size_t evals_ = 0;
};

/// The gap-branch stationary speed of one task: stretching it by dd
/// trades (alpha-1) s^alpha - P_stat of busy energy against p_branch of
/// displaced gap charge, stationary at s = ((P_stat - p_branch) /
/// (alpha-1))^(1/alpha). Zero means "the branch costs at least as much as
/// leakage": absorb the gap entirely (stretch to the feasibility bound).
double branch_stationary_speed(const model::PowerModel& power,
                               double p_branch) {
  const double surplus = power.p_static() - p_branch;
  if (surplus <= 0.0) return 0.0;
  return std::pow(surplus / (power.alpha() - 1.0), 1.0 / power.alpha());
}

/// Golden-section polish tracking the best point seen — safe on the
/// piecewise-smooth (break-even kinks) and partially-infeasible (+inf)
/// objectives the moves produce: a non-unimodal shape can only make the
/// polish less effective, never return a worse point than it evaluated.
double golden_best(const std::function<double(double)>& f, double lo,
                   double hi, std::size_t iters) {
  double a = hi - kGolden * (hi - lo);
  double b = lo + kGolden * (hi - lo);
  double fa = f(a);
  double fb = f(b);
  double best_x = fa <= fb ? a : b;
  double best_f = std::min(fa, fb);
  for (std::size_t it = 0; it < iters; ++it) {
    if (fa <= fb) {
      hi = b;
      b = a;
      fb = fa;
      a = hi - kGolden * (hi - lo);
      fa = f(a);
      if (fa < best_f) {
        best_f = fa;
        best_x = a;
      }
    } else {
      lo = a;
      a = b;
      fa = fb;
      b = lo + kGolden * (hi - lo);
      fb = f(b);
      if (fb < best_f) {
        best_f = fb;
        best_x = b;
      }
    }
  }
  return best_x;
}

}  // namespace

JointSleepResult solve_joint_sleep(const Instance& instance,
                                   const model::ContinuousModel& model,
                                   const sched::Mapping& mapping,
                                   const JointSleepOptions& options) {
  JointSleepResult result;
  const RaceToIdleResult anchor =
      solve_race_to_idle(instance, model, mapping, options.race);
  result.solution = anchor.solution;
  result.race = anchor.chosen;
  result.chosen = anchor.chosen;
  if (!anchor.solution.feasible || !instance.platform.has_sleep()) {
    // Bit-identical anchor — and hence bit-identical crawl when no sleep
    // spec is attached anywhere on the platform.
    return result;
  }

  const auto& g = instance.exec_graph;
  const double window = instance.deadline;
  const double s_min = options.race.continuous.s_min;
  Evaluator evaluate(instance, mapping, window);

  const auto cap_of = [&](graph::NodeId v) {
    return std::min(model.s_max, instance.cap_of(v));
  };
  // Sleep spec seen by one mapping processor, with the same 1-spec
  // broadcast sched::idle_energy applies.
  const auto spec_of = [&](std::size_t p) -> const model::SleepSpec& {
    return instance.platform.power(instance.platform.size() == 1 ? 0 : p)
        .sleep();
  };

  std::vector<double> cur = anchor.solution.speeds;
  Evaluation cur_eval = evaluate(cur);
  if (!cur_eval.feasible) {
    // Tolerance-boundary corner: the anchor sits exactly on the deadline
    // and re-timing reads past it. Keep the anchor.
    return result;
  }
  const double anchor_total = cur_eval.total();

  // Earliest starts and tails of `cur`, refreshed on accept (the only
  // place cur changes). Slowing v alone moves neither, so es + w/s + tail
  // is a real exec-graph path; past the window the evaluator would report
  // a miss, so the per-task move skips s unevaluated. The margin leaves a
  // 1e-9 * window band evaluated as before, far wider than the ~n ulp the
  // sums can differ from compute_timing's by; es is the forward pass's
  // own start (not finish - duration) for the same reason.
  std::vector<double> es;
  std::vector<double> tail;
  const auto refresh_paths = [&] {
    const auto durations = sched::durations_from_speeds(g, cur);
    es = sched::compute_timing(g, durations).start;
    tail = sched::compute_tails(g, durations);
  };
  refresh_paths();
  const double late = window * (1.0 + 2.0 * kFeasibilityRelTol);
  const auto provably_late = [&](graph::NodeId v, double s) {
    return es[v] + g.weight(v) / s + tail[v] > late;
  };

  std::vector<double> tmp;
  const auto propose = [&](const std::vector<double>& speeds) {
    const Evaluation e = evaluate(speeds);
    if (e.feasible && e.total() < cur_eval.total() * kImprove) {
      cur = speeds;
      cur_eval = e;
      refresh_paths();
      return true;
    }
    return false;
  };

  std::size_t rounds_run = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const double before = cur_eval.total();

    // Re-decide gap states given speeds: stretch one task at a time into
    // the gap behind it, toward the branch-stationary speeds (crawl below
    // s_crit) or the feasibility bound (absorb the gap), golden-polished.
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const double w = g.weight(v);
      if (w == 0.0) continue;
      const double lo = std::max({s_min, w / window, 1e-12});
      const double hi = cur[v];
      if (!(lo < hi)) continue;
      const auto f_single = [&](double s) {
        if (provably_late(v, s)) return kInf;
        tmp = cur;
        tmp[v] = s;
        return evaluate(tmp).total();
      };
      const model::SleepSpec& spec = spec_of(mapping.processor_of(v));
      const auto& power = instance.power_of(v);
      for (double s :
           {branch_stationary_speed(power, spec.p_idle),
            branch_stationary_speed(power, spec.p_sleep), lo,
            golden_best(f_single, lo, hi, kRefineIters)}) {
        const double clamped = std::clamp(s > 0.0 ? s : lo, lo, hi);
        if (provably_late(v, clamped)) continue;
        tmp = cur;
        tmp[v] = clamped;
        propose(tmp);
      }
    }

    // Re-solve speeds given gap states, processor by processor: one
    // common speed for everything mapped on p, through the same
    // event-point candidates the exact DP scans (branch-stationary
    // speeds, fill-the-window, break-even kink, cap), golden-polished.
    for (std::size_t p = 0; p < mapping.num_processors(); ++p) {
      const auto& tasks = mapping.tasks_on(p);
      double work = 0.0;
      double cap_p = model.s_max;
      double top = 0.0;
      const model::PowerModel* power = nullptr;
      for (graph::NodeId v : tasks) {
        const double w = g.weight(v);
        if (w == 0.0) continue;
        work += w;
        cap_p = std::min(cap_p, cap_of(v));
        top = std::max(top, cur[v]);
        if (power == nullptr) power = &instance.power_of(v);
      }
      if (work <= 0.0 || power == nullptr) continue;
      const double lo = std::max({s_min, work / window, 1e-12});
      const double hi =
          std::isfinite(cap_p)
              ? cap_p
              : std::max({top * 4.0, lo * 4.0, power->critical_speed() * 4.0});
      if (!(lo < hi)) continue;
      const auto with_common = [&](double s) {
        tmp = cur;
        for (graph::NodeId v : tasks) {
          if (g.weight(v) == 0.0) continue;
          tmp[v] = s;
        }
      };
      const auto f_common = [&](double s) {
        with_common(s);
        return evaluate(tmp).total();
      };
      const model::SleepSpec& spec = spec_of(p);
      const double kink = spec.break_even();
      double candidates[6];
      std::size_t count = 0;
      candidates[count++] = branch_stationary_speed(*power, spec.p_idle);
      candidates[count++] = branch_stationary_speed(*power, spec.p_sleep);
      candidates[count++] = work / window;
      if (std::isfinite(kink) && window - kink > 0.0) {
        candidates[count++] = work / (window - kink);
      }
      if (std::isfinite(cap_p)) candidates[count++] = cap_p;
      candidates[count++] = golden_best(f_common, lo, hi, kRefineIters);
      for (std::size_t i = 0; i < count; ++i) {
        const double s = candidates[i];
        with_common(std::clamp(s > 0.0 ? s : lo, lo, hi));
        propose(tmp);
      }
    }

    // Global uniform rescale, both directions (the race only searches
    // k >= 1): re-balance the whole schedule against the gap charges the
    // per-task and per-processor moves just reshaped.
    {
      const auto with_scale = [&](double k) {
        tmp = cur;
        for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
          if (g.weight(v) == 0.0) continue;
          tmp[v] = std::min(cur[v] * k, cap_of(v));
        }
      };
      const auto f_scale = [&](double k) {
        with_scale(k);
        return evaluate(tmp).total();
      };
      with_scale(golden_best(f_scale, 0.5, 2.0, kRefineIters));
      propose(tmp);
    }

    ++rounds_run;
    if (cur_eval.total() >= before * kImprove) break;  // converged
  }

  result.rounds = rounds_run;
  if (cur_eval.total() < anchor_total * kImprove) {
    result.solution.iterations += evaluate.evals();  // charged when improved
    result.improved = true;
    result.solution.method = "joint-sleep";
    result.solution.speeds = cur;
    result.solution.energy = cur_eval.busy;
    result.chosen.busy = cur_eval.busy;
    result.chosen.idle = cur_eval.idle;
  }

  // Report the surviving gaps with their cheaper branch; gaps of the
  // anchor schedule that vanished were crawled across.
  const auto race_gaps = sched::idle_intervals(
      g, mapping, sched::durations_from_speeds(g, anchor.solution.speeds),
      window);
  const auto final_gaps = sched::idle_intervals(
      g, mapping, sched::durations_from_speeds(g, result.solution.speeds),
      window);
  result.gaps.reserve(final_gaps.size());
  for (const sched::IdleInterval& gap : final_gaps) {
    const model::SleepSpec& spec = spec_of(gap.processor);
    const double length = gap.length();
    const GapState state =
        spec.p_sleep * length + spec.e_wake < spec.p_idle * length
            ? GapState::kSleep
            : GapState::kIdle;
    result.gaps.push_back({gap, state});
  }
  if (race_gaps.size() > final_gaps.size()) {
    result.absorbed = race_gaps.size() - final_gaps.size();
  }
  return result;
}

}  // namespace reclaim::core
