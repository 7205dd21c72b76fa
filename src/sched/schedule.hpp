// Schedule evaluation: from per-task speeds (or Vdd speed profiles) to
// start/finish times, makespan, deadline feasibility and energy — plus the
// invariant validators used throughout the tests.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"
#include "model/energy_model.hpp"
#include "model/platform.hpp"
#include "model/power_model.hpp"
#include "sched/mapping.hpp"

namespace reclaim::sched {

/// The one relative tolerance for "does this schedule fit the window":
/// meets_deadline's default and the idle-interval window-fit check.
/// core::kFeasibilityRelTol aliases it so solver feasibility checks and
/// schedule validation can never drift apart.
inline constexpr double kScheduleRelTol = 1e-9;

/// A Vdd-Hopping execution of one task: consecutive (speed, duration)
/// segments. Constant-speed executions are a single segment.
struct SpeedProfile {
  struct Segment {
    double speed = 0.0;
    double duration = 0.0;
  };

  std::vector<Segment> segments;

  [[nodiscard]] double total_duration() const noexcept;
  /// Work processed: sum of speed * duration over segments.
  [[nodiscard]] double work() const noexcept;
  [[nodiscard]] double energy(const model::PowerModel& power) const;
};

struct Timing {
  std::vector<double> start;
  std::vector<double> finish;
  double makespan = 0.0;
};

/// Durations d_i = w_i / s_i; zero-weight tasks have zero duration
/// regardless of their (possibly zero) speed entry.
[[nodiscard]] std::vector<double> durations_from_speeds(
    const graph::Digraph& g, const std::vector<double>& speeds);

/// Earliest-start timing of the execution graph under the given durations.
[[nodiscard]] Timing compute_timing(const graph::Digraph& exec_graph,
                                    const std::vector<double>& durations);

/// Backward pass of compute_timing: tail[v] is the longest duration path
/// behind v (0 for a sink). If v alone runs for d instead, start[v] + d +
/// tail[v] is a real path through v, so it is at most the new makespan
/// (up to rounding) and equal to it when v lies on a longest path.
[[nodiscard]] std::vector<double> compute_tails(
    const graph::Digraph& exec_graph, const std::vector<double>& durations);

/// Total busy energy of constant-speed execution under `power` (dynamic
/// plus, for a leakage-aware model, P_stat per busy second).
[[nodiscard]] double total_energy(const graph::Digraph& g,
                                  const std::vector<double>& speeds,
                                  const model::PowerModel& power);

/// Total busy energy of profile-based (Vdd) execution.
[[nodiscard]] double total_energy(const std::vector<SpeedProfile>& profiles,
                                  const model::PowerModel& power);

/// One idle gap on one processor: the half-open interval [begin, end)
/// during which the processor has no task running, inside the platform
/// window [0, window].
struct IdleInterval {
  std::size_t processor = 0;
  double begin = 0.0;
  double end = 0.0;

  [[nodiscard]] double length() const noexcept { return end - begin; }

  friend bool operator==(const IdleInterval&, const IdleInterval&) = default;
};

/// Enumerates every per-processor idle gap of the earliest-start schedule
/// induced by `durations` under `mapping`, inside the window [0, window]:
/// the head gap before a processor's first positive-duration task, the
/// interior gaps between consecutive tasks, and the tail gap after its
/// last task. A processor with no positive-duration task contributes one
/// full-window gap. Zero-length gaps are dropped; gaps are ordered by
/// (processor, begin). Requires every mapped task to finish inside the
/// window (within the meets_deadline relative tolerance; busy intervals
/// are clipped to the window).
[[nodiscard]] std::vector<IdleInterval> idle_intervals(
    const graph::Digraph& exec_graph, const Mapping& mapping,
    const std::vector<double>& durations, double window);

/// Total idle-time charge of the schedule: sum over idle gaps of
/// min(P_idle * L, P_sleep * L + E_wake) under `power`'s sleep spec
/// (model::SleepSpec::gap_energy). Exactly 0.0 when the spec is all-zero,
/// so pre-sleep energy accounting is reproduced bit-identically.
[[nodiscard]] double idle_energy(const graph::Digraph& exec_graph,
                                 const Mapping& mapping,
                                 const std::vector<double>& durations,
                                 double window,
                                 const model::PowerModel& power);

/// Heterogeneous variant: each gap is charged under the sleep spec of its
/// own processor. A 1-processor platform broadcasts its model across every
/// processor of the mapping (the pre-platform semantics, bit-identically);
/// otherwise the platform must have one spec per mapping processor.
[[nodiscard]] double idle_energy(const graph::Digraph& exec_graph,
                                 const Mapping& mapping,
                                 const std::vector<double>& durations,
                                 double window,
                                 const model::Platform& platform);

/// True when the earliest-start makespan meets the deadline within
/// relative tolerance.
[[nodiscard]] bool meets_deadline(const graph::Digraph& exec_graph,
                                  const std::vector<double>& durations,
                                  double deadline,
                                  double rel_tol = kScheduleRelTol);

/// Throws InvalidArgument unless: one speed per task, every positive-weight
/// task has a speed admissible under `model`, and the induced schedule
/// meets `deadline`. The workhorse assertion of the test suite.
void validate_constant_speeds(const graph::Digraph& exec_graph,
                              const std::vector<double>& speeds,
                              const model::EnergyModel& model, double deadline,
                              double rel_tol = 1e-7);

/// Profile analogue: every segment speed must be a mode of `model`'s mode
/// set, each task's profile work must equal its weight, and the induced
/// schedule must meet `deadline`.
void validate_profiles(const graph::Digraph& exec_graph,
                       const std::vector<SpeedProfile>& profiles,
                       const model::EnergyModel& model, double deadline,
                       double rel_tol = 1e-7);

}  // namespace reclaim::sched
