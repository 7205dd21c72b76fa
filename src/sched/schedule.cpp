#include "sched/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/topo.hpp"
#include "util/error.hpp"

namespace reclaim::sched {

using util::require;

double SpeedProfile::total_duration() const noexcept {
  double d = 0.0;
  for (const Segment& s : segments) d += s.duration;
  return d;
}

double SpeedProfile::work() const noexcept {
  double w = 0.0;
  for (const Segment& s : segments) w += s.speed * s.duration;
  return w;
}

double SpeedProfile::energy(const model::PowerModel& power) const {
  double e = 0.0;
  for (const Segment& s : segments) e += power.energy(s.speed, s.duration);
  return e;
}

std::vector<double> durations_from_speeds(const graph::Digraph& g,
                                          const std::vector<double>& speeds) {
  require(speeds.size() == g.num_nodes(), "one speed per task required");
  std::vector<double> durations(speeds.size(), 0.0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const double w = g.weight(v);
    if (w == 0.0) continue;
    require(speeds[v] > 0.0, "positive-weight task requires positive speed");
    durations[v] = w / speeds[v];
  }
  return durations;
}

Timing compute_timing(const graph::Digraph& exec_graph,
                      const std::vector<double>& durations) {
  require(durations.size() == exec_graph.num_nodes(),
          "one duration per task required");
  const auto order = graph::topological_order(exec_graph);
  require(order.has_value(), "execution graph must be acyclic");

  Timing timing;
  timing.start.assign(exec_graph.num_nodes(), 0.0);
  timing.finish.assign(exec_graph.num_nodes(), 0.0);
  for (graph::NodeId v : *order) {
    double start = 0.0;
    for (graph::NodeId p : exec_graph.predecessors(v))
      start = std::max(start, timing.finish[p]);
    timing.start[v] = start;
    timing.finish[v] = start + durations[v];
    timing.makespan = std::max(timing.makespan, timing.finish[v]);
  }
  return timing;
}

std::vector<double> compute_tails(const graph::Digraph& exec_graph,
                                  const std::vector<double>& durations) {
  require(durations.size() == exec_graph.num_nodes(),
          "one duration per task required");
  const auto order = graph::topological_order(exec_graph);
  require(order.has_value(), "execution graph must be acyclic");

  std::vector<double> tail(exec_graph.num_nodes(), 0.0);
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    double behind = 0.0;
    for (graph::NodeId u : exec_graph.successors(*it))
      behind = std::max(behind, durations[u] + tail[u]);
    tail[*it] = behind;
  }
  return tail;
}

double total_energy(const graph::Digraph& g, const std::vector<double>& speeds,
                    const model::PowerModel& power) {
  require(speeds.size() == g.num_nodes(), "one speed per task required");
  double e = 0.0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    e += power.task_energy(g.weight(v), speeds[v]);
  return e;
}

double total_energy(const std::vector<SpeedProfile>& profiles,
                    const model::PowerModel& power) {
  double e = 0.0;
  for (const SpeedProfile& p : profiles) e += p.energy(power);
  return e;
}

std::vector<IdleInterval> idle_intervals(const graph::Digraph& exec_graph,
                                         const Mapping& mapping,
                                         const std::vector<double>& durations,
                                         double window) {
  require(window > 0.0, "idle window must be positive");
  mapping.validate_complete(exec_graph);
  const Timing timing = compute_timing(exec_graph, durations);
  require(timing.makespan <= window * (1.0 + kScheduleRelTol),
          "schedule does not fit inside the idle window");

  std::vector<IdleInterval> gaps;
  for (std::size_t p = 0; p < mapping.num_processors(); ++p) {
    // Busy intervals of processor p. The mapping's list order is already
    // execution order (chaining edges enforce it), but sorting by start
    // keeps the enumeration correct for hand-built mappings whose lists
    // are permuted relative to the timing.
    std::vector<std::pair<double, double>> busy;
    for (graph::NodeId v : mapping.tasks_on(p)) {
      if (durations[v] <= 0.0) continue;
      busy.emplace_back(timing.start[v], std::min(timing.finish[v], window));
    }
    std::sort(busy.begin(), busy.end());
    double cursor = 0.0;
    for (const auto& [start, finish] : busy) {
      require(start >= cursor * (1.0 - kScheduleRelTol) - 1e-12,
              "tasks of one processor overlap");
      if (start > cursor) gaps.push_back({p, cursor, start});
      cursor = std::max(cursor, finish);
    }
    if (cursor < window) gaps.push_back({p, cursor, window});
  }
  return gaps;
}

double idle_energy(const graph::Digraph& exec_graph, const Mapping& mapping,
                   const std::vector<double>& durations, double window,
                   const model::PowerModel& power) {
  double e = 0.0;
  for (const IdleInterval& gap :
       idle_intervals(exec_graph, mapping, durations, window)) {
    e += power.idle_energy(gap.length());
  }
  return e;
}

double idle_energy(const graph::Digraph& exec_graph, const Mapping& mapping,
                   const std::vector<double>& durations, double window,
                   const model::Platform& platform) {
  const bool broadcast = platform.size() == 1;
  require(broadcast || platform.size() == mapping.num_processors(),
          "platform and mapping disagree on the processor count");
  double e = 0.0;
  for (const IdleInterval& gap :
       idle_intervals(exec_graph, mapping, durations, window)) {
    const std::size_t p = broadcast ? 0 : gap.processor;
    e += platform.power(p).idle_energy(gap.length());
  }
  return e;
}

bool meets_deadline(const graph::Digraph& exec_graph,
                    const std::vector<double>& durations, double deadline,
                    double rel_tol) {
  const Timing timing = compute_timing(exec_graph, durations);
  return timing.makespan <= deadline * (1.0 + rel_tol);
}

void validate_constant_speeds(const graph::Digraph& exec_graph,
                              const std::vector<double>& speeds,
                              const model::EnergyModel& model, double deadline,
                              double rel_tol) {
  require(speeds.size() == exec_graph.num_nodes(), "one speed per task required");
  for (graph::NodeId v = 0; v < exec_graph.num_nodes(); ++v) {
    if (exec_graph.weight(v) == 0.0) continue;  // zero tasks run in zero time
    require(model::is_admissible_speed(model, speeds[v], rel_tol),
            "inadmissible speed for the energy model");
  }
  const auto durations = durations_from_speeds(exec_graph, speeds);
  require(meets_deadline(exec_graph, durations, deadline, rel_tol),
          "schedule misses the deadline");
}

void validate_profiles(const graph::Digraph& exec_graph,
                       const std::vector<SpeedProfile>& profiles,
                       const model::EnergyModel& model, double deadline,
                       double rel_tol) {
  require(profiles.size() == exec_graph.num_nodes(), "one profile per task required");
  const auto& modes = model::modes_of(model);
  std::vector<double> durations(profiles.size(), 0.0);
  for (graph::NodeId v = 0; v < exec_graph.num_nodes(); ++v) {
    const SpeedProfile& profile = profiles[v];
    for (const auto& segment : profile.segments) {
      require(segment.duration >= -rel_tol, "negative segment duration");
      require(modes.contains(segment.speed, rel_tol),
              "profile segment speed is not a mode");
    }
    const double w = exec_graph.weight(v);
    const double scale = std::max(1.0, w);
    require(std::abs(profile.work() - w) <= rel_tol * scale,
            "profile work does not match the task weight");
    durations[v] = profile.total_duration();
  }
  require(meets_deadline(exec_graph, durations, deadline, rel_tol),
          "profile schedule misses the deadline");
}

}  // namespace reclaim::sched
