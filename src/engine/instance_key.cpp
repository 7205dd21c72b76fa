#include "engine/instance_key.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/error.hpp"

namespace reclaim::engine {

namespace {

void put_u64(std::string& out, std::uint64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

void put_double(std::string& out, double v) {
  // Bit patterns make equal keys imply equal inputs, but the two IEEE
  // zeros are mathematically identical while differing in the sign bit: a
  // parsed "-0.0" weight or p_static must hit the same memo entry as 0.0.
  // NaN is the dual failure (equal bits, never equal as a value) and can
  // only poison the memo — reject it here with a clear error.
  util::require(!std::isnan(v), "instance key: NaN is not a valid field value");
  if (v == 0.0) v = 0.0;  // canonicalize -0.0
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_modes(std::string& out, const model::ModeSet& modes) {
  put_u64(out, modes.size());
  for (double s : modes.speeds()) put_double(out, s);
}

// Every field that determines the power model's math goes into the key:
// kind tag, exponent, static power, and the three sleep-spec fields
// (idle/sleep power and wake cost feed the platform accounting and the
// race-to-idle layer). Hashing a subset would alias distinct models onto
// one memo entry.
void put_power(std::string& out, const model::PowerModel& power) {
  out.push_back(power.kind() == model::PowerModel::Kind::kPowerLaw ? 'p' : 's');
  put_double(out, power.alpha());
  put_double(out, power.p_static());
  put_double(out, power.sleep().p_idle);
  put_double(out, power.sleep().p_sleep);
  put_double(out, power.sleep().e_wake);
}

// The whole platform (every processor's power model and cap) plus the
// task -> processor assignment: per-task coefficients determine every
// solver's answer, so hashing only one processor's model would alias
// distinct heterogeneous platforms onto one memo entry.
void put_platform(std::string& out, const core::Instance& instance) {
  put_u64(out, instance.platform.size());
  for (const model::ProcessorSpec& spec : instance.platform.specs()) {
    put_power(out, spec.power);
    put_double(out, spec.s_max);
  }
  put_u64(out, instance.assignment.size());
  for (std::size_t p : instance.assignment) put_u64(out, p);
}

// The edges in Digraph::edges() order — (from, insertion order) — read
// straight off the successor lists, with no edge vector built.
void put_topology(std::string& out, const graph::Digraph& g) {
  put_u64(out, g.num_nodes());
  put_u64(out, g.num_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (graph::NodeId s : g.successors(v)) {
      put_u64(out, v);
      put_u64(out, s);
    }
  }
}

void put_model(std::string& out, const model::EnergyModel& energy_model) {
  std::visit(
      [&out](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, model::ContinuousModel>) {
          out.push_back('C');
          put_double(out, m.s_max);
        } else if constexpr (std::is_same_v<M, model::DiscreteModel>) {
          out.push_back('D');
          put_modes(out, m.modes);
        } else if constexpr (std::is_same_v<M, model::VddHoppingModel>) {
          out.push_back('V');
          put_modes(out, m.modes);
        } else {
          static_assert(std::is_same_v<M, model::IncrementalModel>);
          out.push_back('I');
          put_double(out, m.s_min);
          put_double(out, m.s_max);
          put_double(out, m.delta);
        }
      },
      energy_model);
}

}  // namespace

// EngineOptions never enters the key: every field is fixed for the
// engine's lifetime, so one memo never sees two settings of any of them,
// and none of them changes an answer.
// key-exempt(threads): scheduling only; solutions are thread-count invariant
// key-exempt(memoize): controls the cache itself, not what is cached
// key-exempt(memo_capacity): cache sizing, never the cached value
// key-exempt(memo_bytes): cache sizing, never the cached value

std::string topology_key(const graph::Digraph& g) {
  std::string key;
  key.reserve(16 + 16 * g.num_edges());
  put_topology(key, g);
  return key;
}

void encode_instance_key(std::string& out, const core::Instance& instance,
                         const sched::Mapping* mapping,
                         const model::EnergyModel& model,
                         const core::SolveOptions& options) {
  const auto& g = instance.exec_graph;
  out.clear();
  out.reserve(64 + 8 * g.num_nodes() + 16 * g.num_edges());
  put_topology(out, g);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    put_double(out, g.weight(v));
  }
  put_double(out, instance.deadline);
  put_platform(out, instance);
  put_model(out, model);
  put_u64(out, options.exact_discrete_up_to);
  put_double(out, options.rel_gap);
  put_double(out, options.continuous_s_min);
  // One byte per leakage mode: Exact and Reduction answers differ whenever
  // the reduction is suboptimal, so aliasing them would serve the wrong
  // cached solution (docs/architecture.md, "Memo-key fields").
  out.push_back(options.leakage == core::LeakageMode::kExact ? 'X' : 'R');
  // One byte per sleep_mode: race, joint and DP answers differ on
  // sleep-enabled instances, so aliasing them would serve the wrong
  // cached solution (docs/architecture.md, "Memo-key fields").
  switch (options.sleep_mode) {
    case core::SleepMode::kJoint:
      out.push_back('J');
      break;
    case core::SleepMode::kDp:
      out.push_back('P');
      break;
    case core::SleepMode::kRace:
      out.push_back('R');
      break;
  }
  if (mapping == nullptr) return;
  // The ordered lists, not just the assignment: idle-gap enumeration (and
  // hence the race-to-idle objective) depends on the execution order of
  // each processor's tasks.
  out.push_back('M');
  put_u64(out, mapping->num_processors());
  for (std::size_t p = 0; p < mapping->num_processors(); ++p) {
    const auto& tasks = mapping->tasks_on(p);
    put_u64(out, tasks.size());
    for (graph::NodeId v : tasks) put_u64(out, v);
  }
}

std::string instance_key(const core::Instance& instance,
                         const model::EnergyModel& model,
                         const core::SolveOptions& options) {
  std::string key;
  encode_instance_key(key, instance, nullptr, model, options);
  return key;
}

std::string mapped_instance_key(const core::Instance& instance,
                                const sched::Mapping& mapping,
                                const model::EnergyModel& model,
                                const core::SolveOptions& options) {
  std::string key;
  encode_instance_key(key, instance, &mapping, model, options);
  return key;
}

}  // namespace reclaim::engine
