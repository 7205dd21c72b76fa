// Canonical byte-string keys for the engine's caches.
//
// Two granularities:
//   - topology_key: node count + edge list only. Two instances share it
//     exactly when their execution graphs have identical node ids and
//     edges, which is what the per-structure shape cache needs (the
//     classification ignores weights, deadlines and models).
//   - instance_key: topology + weights + deadline + the full platform
//     (every processor's power model — kind, alpha, p_static, and the
//     sleep spec's idle/sleep power and wake cost — plus its speed cap;
//     see docs/architecture.md, "Memo-key fields") + the task -> processor
//     assignment + energy model + the solver options that affect the
//     answer. Two instances share it exactly when a deterministic solver
//     must return the same Solution, which is what the solution memo
//     needs; distinct platforms or assignments can never collide.
//   - mapped_instance_key: instance_key + the mapping's ordered
//     per-processor task lists, for the engine's race-to-idle route
//     (idle-gap charges depend on the execution order, not just the
//     assignment).
//
// Keys are deterministic byte encodings (doubles by bit pattern with -0.0
// canonicalized to 0.0 and NaN rejected, sizes as fixed-width integers),
// so equal keys imply equal inputs — the memo never needs a structural
// comparison and hash collisions cannot alias results.
#pragma once

#include <string>

#include "core/problem.hpp"
#include "core/solve.hpp"
#include "graph/digraph.hpp"
#include "model/energy_model.hpp"
#include "sched/mapping.hpp"

namespace reclaim::engine {

/// Canonical encoding of the graph structure (ids + edges, no weights).
[[nodiscard]] std::string topology_key(const graph::Digraph& g);

/// Canonical encoding of everything that determines solve()'s answer.
[[nodiscard]] std::string instance_key(const core::Instance& instance,
                                       const model::EnergyModel& model,
                                       const core::SolveOptions& options);

/// Canonical encoding of everything that determines a mapped (race-to-idle
/// routed) solve's answer: instance_key plus the mapping's ordered lists.
[[nodiscard]] std::string mapped_instance_key(
    const core::Instance& instance, const sched::Mapping& mapping,
    const model::EnergyModel& model, const core::SolveOptions& options);

/// Clears `out`, then writes into it the bytes instance_key returns, or
/// mapped_instance_key's when `mapping` is not null. The engine encodes
/// every memo key into one reused buffer per thread this way instead of
/// allocating a string per solve; since `out` is cleared first, a throw
/// (NaN field) part-way through leaves nothing a later key could pick up.
void encode_instance_key(std::string& out, const core::Instance& instance,
                         const sched::Mapping* mapping,
                         const model::EnergyModel& model,
                         const core::SolveOptions& options);

}  // namespace reclaim::engine
