// Race-to-idle vs crawl-to-deadline under a power-down model.
//
// The s_crit-floored continuous solver ("crawl") minimizes *busy* energy;
// with a sleep spec attached the platform also pays for idle time, and
// running faster than the crawl can pay off: it shrinks the idle-charged
// interior gaps of a multi-processor schedule and lengthens the tail gaps
// into sleepable intervals. At a floor-binding crawl the busy cost is flat
// to first order in a uniform speed-up (that is what s_crit means), while
// the interior-gap charge drops at first order — so whenever the crawl
// leaves idle-charged interior gaps, a slightly faster schedule is
// strictly cheaper (DESIGN.md, "Race-to-idle vs crawl-to-deadline").
//
// solve_race_to_idle() runs the crawl, then searches uniform speed-up
// factors k >= 1 (a log-spaced grid plus golden-section refinement) for
// the scaling minimizing whole-platform energy, and returns the cheaper
// schedule. Scaling all speeds by k scales every start/finish time by 1/k,
// so precedence feasibility is preserved by construction.
#pragma once

#include "core/analysis.hpp"
#include "core/continuous/dispatch.hpp"
#include "core/problem.hpp"
#include "model/energy_model.hpp"
#include "sched/mapping.hpp"

namespace reclaim::core {

struct RaceToIdleOptions {
  /// Options forwarded to the crawl solve (solve_continuous).
  ContinuousOptions continuous;
};

struct RaceToIdleResult {
  /// The cheaper schedule by whole-platform energy. Its `energy` field is
  /// the busy energy (the same semantics every solver reports); the
  /// platform split lives in `chosen` below.
  Solution solution;
  PlatformEnergy crawl;   ///< platform split of the crawl schedule
  PlatformEnergy chosen;  ///< platform split of the returned schedule
  double speedup = 1.0;   ///< uniform factor applied to the crawl speeds
  bool raced = false;     ///< true when speedup > 1 strictly won
};

/// Solves the instance with the s_crit-floored continuous solver, then
/// races: scales all crawl speeds by a common factor k >= 1, clamping
/// each task at its own cap (the model's global s_max folded with its
/// processor's limit), and picks the k minimizing busy + idle energy over
/// the deadline window under `mapping`, with idle gaps charged under each
/// processor's own sleep spec. Cap-pinned tasks simply stop speeding up
/// while the rest keep racing — a big.LITTLE platform's floor-pinned
/// little cores never freeze the big cores' race; the search only ends
/// where *every* task is pinned (or racing provably cannot pay). With no
/// sleep spec anywhere on the platform (or an infeasible instance) the
/// crawl is returned unchanged — bit-identical to solve_continuous.
[[nodiscard]] RaceToIdleResult solve_race_to_idle(
    const Instance& instance, const model::ContinuousModel& model,
    const sched::Mapping& mapping, const RaceToIdleOptions& options = {});

}  // namespace reclaim::core
