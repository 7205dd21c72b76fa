// Structural classification of execution graphs.
//
// The paper's complexity results are keyed to graph families: closed forms
// for forks/joins (Thm 1), polynomial algorithms for trees and
// series-parallel graphs (Thm 2), geometric programming in general.
// analyze() is the one place that decides a graph's family: core::solve,
// the continuous dispatcher, the batched-kernel planner and the engine's
// shape cache all route on its answer.
#pragma once

#include <memory>
#include <string_view>

#include "graph/digraph.hpp"
#include "graph/sp_tree.hpp"

namespace reclaim::graph {

enum class GraphShape {
  kEmpty,
  kSingleTask,
  kChain,          ///< a single directed path
  kFork,           ///< one source, every other node a child leaf of it
  kJoin,           ///< one sink, every other node a parent leaf of it
  kOutTree,        ///< every node has at most one predecessor, connected
  kInTree,         ///< every node has at most one successor, connected
  kSeriesParallel, ///< two-terminal series-parallel (see sp_tree.hpp)
  kGeneral,
};

[[nodiscard]] std::string_view to_string(GraphShape shape) noexcept;

/// n >= 2 directed path. (A single node is classified as kSingleTask.)
[[nodiscard]] bool is_chain(const Digraph& g);

/// Fork in the paper's sense: source T0 plus leaves T1..Tn, n >= 1.
[[nodiscard]] bool is_fork(const Digraph& g);

/// Mirror image of a fork.
[[nodiscard]] bool is_join(const Digraph& g);

/// Rooted tree with edges oriented away from the root.
[[nodiscard]] bool is_out_tree(const Digraph& g);

/// Rooted tree with edges oriented towards the root.
[[nodiscard]] bool is_in_tree(const Digraph& g);

/// Structural analysis of one topology: its shape plus, for
/// series-parallel graphs, the decomposition the SP solver consumes (so
/// the SP check and the decomposition run once).
struct ShapeInfo {
  GraphShape shape = GraphShape::kGeneral;
  /// Non-null exactly when shape == kSeriesParallel.
  std::shared_ptr<const SpTree> sp_tree;
};

/// Most specific shape for `g` (requires a DAG). The order of checks is
/// SingleTask, Chain, Fork, Join, OutTree, InTree, SeriesParallel, General,
/// so e.g. a chain — which is also a fork degenerate and a tree — reports
/// kChain.
[[nodiscard]] ShapeInfo analyze(const Digraph& g);

/// analyze(g).shape.
[[nodiscard]] GraphShape classify(const Digraph& g);

}  // namespace reclaim::graph
