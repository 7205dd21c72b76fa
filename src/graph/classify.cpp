#include "graph/classify.hpp"

#include <utility>

#include "graph/topo.hpp"
#include "util/error.hpp"

namespace reclaim::graph {

std::string_view to_string(GraphShape shape) noexcept {
  switch (shape) {
    case GraphShape::kEmpty: return "empty";
    case GraphShape::kSingleTask: return "single-task";
    case GraphShape::kChain: return "chain";
    case GraphShape::kFork: return "fork";
    case GraphShape::kJoin: return "join";
    case GraphShape::kOutTree: return "out-tree";
    case GraphShape::kInTree: return "in-tree";
    case GraphShape::kSeriesParallel: return "series-parallel";
    case GraphShape::kGeneral: return "general";
  }
  return "unknown";
}

bool is_chain(const Digraph& g) {
  if (g.num_nodes() < 2) return false;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.in_degree(v) > 1 || g.out_degree(v) > 1) return false;
  }
  return is_weakly_connected(g) && is_acyclic(g);
}

bool is_fork(const Digraph& g) {
  const std::size_t n = g.num_nodes();
  if (n < 2) return false;
  const auto roots = g.sources();
  if (roots.size() != 1) return false;
  const NodeId root = roots.front();
  if (g.out_degree(root) != n - 1) return false;
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    if (g.in_degree(v) != 1 || g.out_degree(v) != 0) return false;
  }
  return true;
}

bool is_join(const Digraph& g) { return is_fork(g.reversed()); }

bool is_out_tree(const Digraph& g) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return false;
  if (g.num_edges() != n - 1) return false;
  if (g.sources().size() != 1) return false;
  for (NodeId v = 0; v < n; ++v) {
    if (g.in_degree(v) > 1) return false;
  }
  // n-1 edges, unique root, in-degree <= 1 everywhere: a connected DAG.
  return is_acyclic(g);
}

bool is_in_tree(const Digraph& g) { return is_out_tree(g.reversed()); }

ShapeInfo analyze(const Digraph& g) {
  util::require(is_acyclic(g), "classify requires a DAG");
  if (g.num_nodes() == 0) return {GraphShape::kEmpty, nullptr};
  if (g.num_nodes() == 1) return {GraphShape::kSingleTask, nullptr};
  if (is_chain(g)) return {GraphShape::kChain, nullptr};
  if (is_fork(g)) return {GraphShape::kFork, nullptr};
  if (is_join(g)) return {GraphShape::kJoin, nullptr};
  if (is_out_tree(g)) return {GraphShape::kOutTree, nullptr};
  if (is_in_tree(g)) return {GraphShape::kInTree, nullptr};
  if (auto tree = sp_decompose(g)) {
    return {GraphShape::kSeriesParallel,
            std::make_shared<const SpTree>(std::move(*tree))};
  }
  return {GraphShape::kGeneral, nullptr};
}

GraphShape classify(const Digraph& g) { return analyze(g).shape; }

}  // namespace reclaim::graph
