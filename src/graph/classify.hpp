// Structural classification of execution graphs.
//
// The paper's complexity results are keyed to graph families: closed forms
// for forks/joins (Thm 1), polynomial algorithms for trees and
// series-parallel graphs (Thm 2), geometric programming in general.
// analyze() is the one place that decides a graph's family: core::solve,
// the continuous dispatcher, the batched-kernel planner and the engine's
// shape cache all route on its answer.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

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

/// Flattened, recursion-free evaluation orders of a tree or
/// series-parallel topology: everything the l_alpha composition (Theorem
/// 2) needs about the graph besides its weights, built once per topology
/// by composition_plan().
struct CompositionPlan {
  // --- tree families (out- and in-trees) -------------------------------
  /// The evaluation graph is the original adjacency for out-trees and the
  /// reversed one for in-trees (node ids preserved): Eq. (1) is symmetric
  /// under time reversal, so an in-tree composes as its mirror out-tree.
  bool reversed = false;
  /// Topological order of the evaluation graph (Kahn, smallest-id-first —
  /// the canonical order topological_order returns).
  std::vector<NodeId> order;
  /// CSR successor lists of the evaluation graph: children of v are
  /// child[child_offset[v] .. child_offset[v + 1]), in adjacency order.
  std::vector<std::uint32_t> child_offset;
  std::vector<NodeId> child;
  /// Sources of the evaluation graph (window = deadline roots).
  std::vector<NodeId> roots;

  // --- series-parallel -------------------------------------------------
  /// The decomposition tree plus its DFS pre-order: parents before
  /// children, siblings in child order. Walked forward it assigns windows
  /// top-down and fixes the energy accumulation order at the leaves;
  /// walked backward it folds equivalent weights bottom-up.
  std::shared_ptr<const SpTree> sp_tree;
  std::vector<std::uint32_t> pre_order;
};

/// Structural analysis of one topology: its shape plus, for
/// series-parallel graphs, the decomposition the SP composition consumes
/// (so the SP check and the decomposition run once), and optionally the
/// composition plan.
struct ShapeInfo {
  GraphShape shape = GraphShape::kGeneral;
  /// Non-null exactly when shape == kSeriesParallel.
  std::shared_ptr<const SpTree> sp_tree;
  /// composition_plan() of this shape, for a caller that keeps the
  /// analysis of a topology around (the engine's shape cache). analyze()
  /// leaves it null; the closed-form kernels then flatten the topology
  /// per call.
  std::shared_ptr<const CompositionPlan> comp;
};

/// Most specific shape for `g` (requires a DAG). The order of checks is
/// SingleTask, Chain, Fork, Join, OutTree, InTree, SeriesParallel, General,
/// so e.g. a chain — which is also a fork degenerate and a tree — reports
/// kChain.
[[nodiscard]] ShapeInfo analyze(const Digraph& g);

/// analyze(g).shape.
[[nodiscard]] GraphShape classify(const Digraph& g);

/// The composition plan of `g` analyzed as `info` (out-tree, in-tree or
/// series-parallel, the latter with its decomposition); null for every
/// other shape. `info` may name a family more general than g's own shape
/// (a chain evaluated as a tree).
[[nodiscard]] std::shared_ptr<const CompositionPlan> composition_plan(
    const Digraph& g, const ShapeInfo& info);

}  // namespace reclaim::graph
