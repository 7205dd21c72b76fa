#include "graph/digraph.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/error.hpp"

namespace reclaim::graph {

using util::require;

Digraph::Digraph(std::size_t n, double weight)
    : weights_(n, weight), structure_(std::make_shared<Structure>()) {
  require(weight >= 0.0, "task weights must be non-negative");
  structure_->names.resize(n);
  structure_->succs.resize(n);
  structure_->preds.resize(n);
}

void Digraph::throw_node_out_of_range() {
  throw InvalidArgument("node id out of range");
}

Digraph::Structure& Digraph::own_structure() {
  if (!structure_) {
    structure_ = std::make_shared<Structure>();
  } else if (structure_.use_count() != 1) {
    structure_ = std::make_shared<Structure>(*structure_);
  } else {
    // Sole holder: no other graph can be copying the pointer, since only
    // this object holds it. The count read is relaxed; the fence makes
    // the last other holder's release decrement synchronize with it, so
    // that holder's reads of the structure happen before our writes.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *structure_;
}

NodeId Digraph::add_node(double weight, std::string name) {
  require(weight >= 0.0, "task weights must be non-negative");
  Structure& s = own_structure();
  s.names.push_back(std::move(name));
  s.succs.emplace_back();
  s.preds.emplace_back();
  weights_.push_back(weight);
  return weights_.size() - 1;
}

void Digraph::add_edge(NodeId from, NodeId to) {
  require(add_edge_if_absent(from, to), "duplicate edge");
}

bool Digraph::add_edge_if_absent(NodeId from, NodeId to) {
  check_node(from);
  check_node(to);
  require(from != to, "self loops are not allowed");
  if (has_edge(from, to)) return false;
  Structure& s = own_structure();
  s.succs[from].push_back(to);
  s.preds[to].push_back(from);
  ++s.num_edges;
  return true;
}

void Digraph::set_weight(NodeId v, double w) {
  check_node(v);
  require(w >= 0.0, "task weights must be non-negative");
  weights_[v] = w;
}

const std::string& Digraph::name(NodeId v) const {
  check_node(v);
  return structure_->names[v];
}

void Digraph::set_name(NodeId v, std::string name) {
  check_node(v);
  own_structure().names[v] = std::move(name);
}

bool Digraph::has_edge(NodeId from, NodeId to) const {
  check_node(from);
  check_node(to);
  const auto& out = structure_->succs[from];
  return std::find(out.begin(), out.end(), to) != out.end();
}

bool Digraph::same_adjacency(const Digraph& other) const {
  const std::size_t n = num_nodes();
  if (other.num_nodes() != n || other.num_edges() != num_edges()) return false;
  for (NodeId v = 0; v < n; ++v) {
    if (structure_->succs[v] != other.structure_->succs[v]) return false;
  }
  return true;
}

std::vector<NodeId> Digraph::sources() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes(); ++v)
    if (structure_->preds[v].empty()) out.push_back(v);
  return out;
}

std::vector<NodeId> Digraph::sinks() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes(); ++v)
    if (structure_->succs[v].empty()) out.push_back(v);
  return out;
}

std::vector<Edge> Digraph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (NodeId v = 0; v < num_nodes(); ++v)
    for (NodeId s : structure_->succs[v]) out.push_back({v, s});
  return out;
}

double Digraph::total_weight() const noexcept {
  double s = 0.0;
  for (double w : weights_) s += w;
  return s;
}

Digraph Digraph::reversed() const {
  Digraph r = *this;
  Structure& s = r.own_structure();
  std::swap(s.succs, s.preds);
  return r;
}

}  // namespace reclaim::graph
