// Node-weighted directed graph used for task graphs and execution graphs.
//
// Nodes carry the task cost w_i from the paper's formulation (Eq. 1); edges
// are precedence constraints. The container stays deliberately simple:
// contiguous ids, adjacency lists in insertion order, O(deg) membership
// tests. All higher-level algorithms live in separate headers.
//
// Weights are held by value; the topology (names, successor and
// predecessor lists, edge count) lives in one Structure that copies
// share and that nobody writes while it is shared. A sweep re-solves one DAG under many weights and
// deadlines, so its instances hold one structure between them, and two
// graphs that share it compare equal in O(1) (same_topology). A mutation
// of the topology copies the structure first when another graph still
// holds it; set_weight never does. A successors()/predecessors()/name()
// reference taken before such a mutation keeps pointing at the old
// structure, which lives on while any other copy holds it.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace reclaim::graph {

using NodeId = std::size_t;

/// Sentinel id for "no node" (used e.g. by SP-tree junction leaves).
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

struct Edge {
  NodeId from;
  NodeId to;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Digraph {
 public:
  Digraph() = default;

  /// Creates a graph with `n` nodes of weight `weight` and no edges.
  explicit Digraph(std::size_t n, double weight = 1.0);

  /// Adds a node with cost `weight` (>= 0) and optional display name.
  NodeId add_node(double weight, std::string name = {});

  /// Adds edge from -> to. Requires distinct existing endpoints; duplicate
  /// edges are rejected.
  void add_edge(NodeId from, NodeId to);

  /// Adds the edge unless it already exists; returns true when inserted.
  /// An edge already present leaves a shared structure shared.
  bool add_edge_if_absent(NodeId from, NodeId to);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return weights_.size(); }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return structure_ ? structure_->num_edges : 0;
  }

  [[nodiscard]] double weight(NodeId v) const {
    check_node(v);
    return weights_[v];
  }
  void set_weight(NodeId v, double w);

  [[nodiscard]] const std::string& name(NodeId v) const;
  void set_name(NodeId v, std::string name);

  [[nodiscard]] const std::vector<NodeId>& successors(NodeId v) const {
    check_node(v);
    return structure_->succs[v];
  }
  [[nodiscard]] const std::vector<NodeId>& predecessors(NodeId v) const {
    check_node(v);
    return structure_->preds[v];
  }

  [[nodiscard]] std::size_t out_degree(NodeId v) const { return successors(v).size(); }
  [[nodiscard]] std::size_t in_degree(NodeId v) const { return predecessors(v).size(); }

  [[nodiscard]] bool has_edge(NodeId from, NodeId to) const;

  /// True when both graphs have the same node count and, node for node,
  /// the same successor lists in the same order — the topology
  /// engine::topology_key encodes. Weights and names are not compared.
  /// O(1) when the two graphs share a structure (one is a copy of the
  /// other, or both copy a common graph); otherwise O(nodes + edges).
  [[nodiscard]] bool same_topology(const Digraph& other) const {
    return structure_ == other.structure_ || same_adjacency(other);
  }

  /// Nodes with no predecessors, in id order.
  [[nodiscard]] std::vector<NodeId> sources() const;
  /// Nodes with no successors, in id order.
  [[nodiscard]] std::vector<NodeId> sinks() const;

  /// All edges, ordered by (from, insertion order).
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Sum of all node weights.
  [[nodiscard]] double total_weight() const noexcept;

  /// Returns a graph with every edge reversed (weights/names preserved).
  [[nodiscard]] Digraph reversed() const;

 private:
  /// Everything but the weights. Never written while shared: mutators go
  /// through own_structure().
  struct Structure {
    std::vector<std::string> names;
    std::vector<std::vector<NodeId>> succs;
    std::vector<std::vector<NodeId>> preds;
    std::size_t num_edges = 0;
  };

  void check_node(NodeId v) const {
    if (v >= weights_.size()) [[unlikely]] throw_node_out_of_range();
  }
  [[noreturn, gnu::cold]] static void throw_node_out_of_range();

  /// The structure, copied first unless this graph is its only holder.
  Structure& own_structure();
  [[nodiscard]] bool same_adjacency(const Digraph& other) const;

  std::vector<double> weights_;
  std::shared_ptr<Structure> structure_;  ///< null only with no nodes
};

}  // namespace reclaim::graph
