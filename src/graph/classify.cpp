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

namespace {

std::shared_ptr<const CompositionPlan> build_tree_plan(const Digraph& g,
                                                       bool in_tree) {
  auto plan = std::make_shared<CompositionPlan>();
  plan->reversed = in_tree;
  // Reversal preserves node ids, so weights, power models and speeds keep
  // their original indexing; only the adjacency flips.
  const Digraph reversed = in_tree ? g.reversed() : Digraph{};
  const Digraph& eval = in_tree ? reversed : g;

  auto order = topological_order(eval);
  util::require(order.has_value(), "tree plan requires a DAG");
  plan->order = std::move(*order);

  const std::size_t n = eval.num_nodes();
  plan->child_offset.reserve(n + 1);
  plan->child_offset.push_back(0);
  for (NodeId v = 0; v < n; ++v) {
    const auto& succ = eval.successors(v);
    plan->child.insert(plan->child.end(), succ.begin(), succ.end());
    plan->child_offset.push_back(
        static_cast<std::uint32_t>(plan->child.size()));
  }
  plan->roots = eval.sources();
  return plan;
}

std::shared_ptr<const CompositionPlan> build_sp_plan(
    const std::shared_ptr<const SpTree>& tree) {
  util::require(tree != nullptr, "sp plan requires a decomposition tree");
  auto plan = std::make_shared<CompositionPlan>();
  plan->sp_tree = tree;
  plan->pre_order.reserve(tree->nodes.size());
  // Siblings left-to-right: children are pushed in reverse.
  std::vector<std::uint32_t> stack{static_cast<std::uint32_t>(tree->root)};
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    plan->pre_order.push_back(id);
    const auto& children = tree->nodes[id].children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(static_cast<std::uint32_t>(*it));
    }
  }
  return plan;
}

}  // namespace

ShapeInfo analyze(const Digraph& g) {
  util::require(is_acyclic(g), "classify requires a DAG");
  if (g.num_nodes() == 0) return {GraphShape::kEmpty, nullptr, nullptr};
  if (g.num_nodes() == 1) return {GraphShape::kSingleTask, nullptr, nullptr};
  if (is_chain(g)) return {GraphShape::kChain, nullptr, nullptr};
  if (is_fork(g)) return {GraphShape::kFork, nullptr, nullptr};
  if (is_join(g)) return {GraphShape::kJoin, nullptr, nullptr};
  if (is_out_tree(g)) return {GraphShape::kOutTree, nullptr, nullptr};
  if (is_in_tree(g)) return {GraphShape::kInTree, nullptr, nullptr};
  if (auto tree = sp_decompose(g)) {
    return {GraphShape::kSeriesParallel,
            std::make_shared<const SpTree>(std::move(*tree)), nullptr};
  }
  return {GraphShape::kGeneral, nullptr, nullptr};
}

GraphShape classify(const Digraph& g) { return analyze(g).shape; }

std::shared_ptr<const CompositionPlan> composition_plan(const Digraph& g,
                                                        const ShapeInfo& info) {
  switch (info.shape) {
    case GraphShape::kOutTree:
    case GraphShape::kInTree:
      return build_tree_plan(g, info.shape == GraphShape::kInTree);
    case GraphShape::kSeriesParallel:
      return build_sp_plan(info.sp_tree);
    default:
      return nullptr;
  }
}

}  // namespace reclaim::graph
