#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <variant>

#include "core/continuous/joint_sleep.hpp"
#include "core/continuous/race_to_idle.hpp"
#include "sched/schedule.hpp"

namespace perfbench {

using namespace reclaim;

namespace {

/// Why `solution` is not a right answer to `instance`, or empty.
std::string why_wrong(const core::Instance& instance,
                      const model::EnergyModel& model,
                      const core::Solution& solution) {
  if (!solution.feasible) return "infeasible answer";
  if (!std::isfinite(solution.energy)) return "non-finite energy";
  const auto& g = instance.exec_graph;
  std::vector<double> durations(g.num_nodes(), 0.0);
  try {
    if (solution.uses_profiles()) {
      sched::validate_profiles(g, solution.profiles, model, instance.deadline);
      for (std::size_t v = 0; v < g.num_nodes(); ++v) {
        durations[v] = solution.profiles[v].total_duration();
      }
    } else {
      if (solution.speeds.size() != g.num_nodes()) return "speed count";
      const double top = model::max_speed(model);
      const bool continuous =
          std::holds_alternative<model::ContinuousModel>(model);
      for (std::size_t v = 0; v < g.num_nodes(); ++v) {
        const double w = g.weight(v);
        if (w == 0.0) continue;
        const double s = solution.speeds[v];
        if (!(s > 0.0) || !std::isfinite(s)) return "non-positive speed";
        if (!core::within_speed_cap(s, std::min(top, instance.cap_of(v)))) {
          return "speed above its cap";
        }
        if (!continuous && !model::is_admissible_speed(model, s)) {
          return "speed is not a mode";
        }
        durations[v] = w / s;
      }
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  const double makespan = sched::compute_timing(g, durations).makespan;
  if (!core::within_deadline(makespan, instance.deadline)) {
    return "misses the deadline";
  }
  const double recomputed = core::recompute_energy(instance, solution);
  if (std::abs(solution.energy - recomputed) >
      core::kFeasibilityRelTol * std::abs(recomputed)) {
    return "energy differs from recompute_energy";
  }
  return {};
}

}  // namespace

bool Checker::check(const core::Instance& instance,
                    const model::EnergyModel& model,
                    const core::Solution& solution, const char* where) {
  checked_.fetch_add(1, std::memory_order_relaxed);
  const std::string why = why_wrong(instance, model, solution);
  if (why.empty()) return true;
  fail(std::string(where) + ": " + why + " (" + solution.method + ")");
  return false;
}

bool Checker::same(const core::Solution& got, const core::Solution& want,
                   const char* where) {
  compared_.fetch_add(1, std::memory_order_relaxed);
  bool equal = got.feasible == want.feasible && got.method == want.method &&
               got.speeds == want.speeds &&
               got.profiles.size() == want.profiles.size() &&
               std::memcmp(&got.energy, &want.energy, sizeof(double)) == 0;
  for (std::size_t v = 0; equal && v < got.profiles.size(); ++v) {
    const auto& a = got.profiles[v].segments;
    const auto& b = want.profiles[v].segments;
    equal = a.size() == b.size();
    for (std::size_t k = 0; equal && k < a.size(); ++k) {
      equal = a[k].speed == b[k].speed && a[k].duration == b[k].duration;
    }
  }
  if (equal) return true;
  fail(std::string(where) + ": differs from the reference (" + got.method +
       " vs " + want.method + ")");
  return false;
}

void Checker::fail(const std::string& why) {
  failures_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (errors_.size() < 8) errors_.push_back(why);
}

std::vector<std::string> Checker::first_errors() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return errors_;
}

core::Solution reference_solve(const core::Instance& instance,
                               const sched::Mapping* mapping,
                               const model::EnergyModel& model,
                               const core::SolveOptions& options) {
  const auto* continuous = std::get_if<model::ContinuousModel>(&model);
  if (mapping == nullptr || continuous == nullptr ||
      !instance.platform.has_sleep()) {
    return core::solve(instance, model, options);
  }
  core::RaceToIdleOptions race;
  race.continuous.rel_gap = options.rel_gap;
  race.continuous.s_min = options.continuous_s_min;
  race.continuous.leakage = options.leakage;
  if (options.sleep_mode == core::SleepMode::kJoint) {
    core::JointSleepOptions joint;
    joint.race = race;
    return core::solve_joint_sleep(instance, *continuous, *mapping, joint)
        .solution;
  }
  return core::solve_race_to_idle(instance, *continuous, *mapping, race)
      .solution;
}

void maybe_plant(bool plant, core::Solution& solution) {
  static std::atomic<bool> planted{false};
  if (!plant || planted.exchange(true)) return;
  solution.energy *= 1.0 + 1e-6;
}

}  // namespace perfbench
