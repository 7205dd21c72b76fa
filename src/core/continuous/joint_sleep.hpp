// Joint speed + power-down solving: per-gap sleep/idle/crawl decisions as
// solver variables instead of a post-hoc comparison.
//
// Race-to-idle (race_to_idle.hpp) can only scale the crawl uniformly: it
// shrinks idle-charged gaps but can never crawl *below* the s_crit floor
// to keep a gap busy, nor slow one task into the gap it precedes while
// the rest of the schedule stays put. Both moves are profitable exactly
// when a gap branch is cheaper than leakage: stretching a task by dd
// trades (alpha-1) s^alpha - P_stat of busy-energy change against the
// p_idle (or p_sleep) the displaced gap time stops costing, so the
// per-task stationary speeds are
//
//     s*_idle  = ((P_stat - p_idle )/(alpha-1))^(1/alpha)
//     s*_sleep = ((P_stat - p_sleep)/(alpha-1))^(1/alpha)
//
// — genuinely below s_crit = (P_stat/(alpha-1))^(1/alpha) whenever the
// branch price is positive, and "absorb the gap entirely" when the branch
// costs at least as much as leakage (Bampis et al., "speed scaling with
// power down", PAPERS.md).
//
// solve_joint_sleep() anchors on the full race-to-idle result, then runs
// an alternating refine loop over exact whole-platform evaluations
// (busy + sched::idle_energy under the mapping):
//
//   - re-decide gap states given speeds: per-task stretches toward the
//     stationary speeds above (golden-polished), slowing one task into
//     the gap behind it;
//   - re-solve speeds given gap states: whole-processor common-speed
//     moves through the same event-point candidates the exact DP uses
//     (sleep_dp.hpp's optimal_tail_segment), plus a global uniform
//     rescale in both directions.
//
// The per-task move skips, unevaluated, each speed whose path through the
// task provably overshoots the window: the evaluator would only report a
// deadline miss there, so skipping changes no answer, and
// Solution::iterations counts only the evaluations actually made.
//
// Every move is accepted only on a strict exact-evaluation improvement,
// and the final answer is accepted only when it strictly beats the race
// anchor — otherwise the anchor is returned bit-identically, so the joint
// route is never worse than race-to-idle by construction (and equals the
// crawl bit-identically when no sleep spec is attached).
#pragma once

#include <cstddef>
#include <vector>

#include "core/analysis.hpp"
#include "core/continuous/race_to_idle.hpp"
#include "core/problem.hpp"
#include "model/energy_model.hpp"
#include "sched/mapping.hpp"
#include "sched/schedule.hpp"

namespace reclaim::core {

struct JointSleepOptions {
  /// Options of the race-to-idle anchor solve (crawl options included).
  RaceToIdleOptions race;
};

/// Power-down state chosen for one surviving gap of the returned
/// schedule. Gaps the solver crawled across do not survive — they are
/// counted in JointSleepResult::absorbed.
enum class GapState {
  kIdle,
  kSleep,
};

struct GapDecision {
  sched::IdleInterval gap;
  GapState state = GapState::kIdle;
};

struct JointSleepResult {
  /// The chosen schedule; `energy` is busy energy, `method` is
  /// "joint-sleep" only when the refinement strictly beat the race anchor
  /// (otherwise the anchor's solution rides through untouched).
  Solution solution;
  PlatformEnergy race;    ///< platform split of the race-to-idle anchor
  PlatformEnergy chosen;  ///< platform split of the returned schedule
  /// Per-gap decision of the returned schedule: each surviving gap with
  /// its cheaper branch (sleep + wake vs stay idle).
  std::vector<GapDecision> gaps;
  /// Gaps of the anchor schedule that no longer exist — crawled across.
  std::size_t absorbed = 0;
  bool improved = false;   ///< strictly beat the race anchor
  std::size_t rounds = 0;  ///< refine rounds actually run
};

/// Never worse than solve_race_to_idle on the same inputs; bit-identical
/// to it when the instance is infeasible or no sleep spec is attached.
[[nodiscard]] JointSleepResult solve_joint_sleep(
    const Instance& instance, const model::ContinuousModel& model,
    const sched::Mapping& mapping, const JointSleepOptions& options = {});

}  // namespace reclaim::core
