// Unit tests for graph/: container invariants, topological algorithms,
// classification, generators, DOT export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/classify.hpp"
#include "graph/digraph.hpp"
#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "graph/sp_tree.hpp"
#include "engine/instance_key.hpp"
#include "graph/topo.hpp"
#include "util/error.hpp"

namespace rg = reclaim::graph;
using reclaim::util::Rng;

namespace {

/// Checks a topological order: every edge goes forward.
void expect_valid_topo(const rg::Digraph& g) {
  const auto order = rg::topological_order(g);
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> pos(g.num_nodes());
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  for (const auto& e : g.edges()) EXPECT_LT(pos[e.from], pos[e.to]);
}

/// Returns classify(g), checking that analyze(g) agrees with it: the same
/// shape, and a decomposition exactly when the shape is series-parallel.
rg::GraphShape classify_checked(const rg::Digraph& g) {
  const rg::ShapeInfo info = rg::analyze(g);
  const rg::GraphShape shape = rg::classify(g);
  EXPECT_EQ(info.shape, shape);
  EXPECT_EQ(info.sp_tree != nullptr,
            shape == rg::GraphShape::kSeriesParallel);
  return shape;
}

/// Everything a Digraph holds, for before/after comparisons.
struct Snapshot {
  std::vector<double> weights;
  std::vector<std::string> names;
  std::vector<std::vector<rg::NodeId>> succs;
  std::vector<std::vector<rg::NodeId>> preds;
  std::size_t num_edges = 0;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

Snapshot snapshot(const rg::Digraph& g) {
  Snapshot s;
  for (rg::NodeId v = 0; v < g.num_nodes(); ++v) {
    s.weights.push_back(g.weight(v));
    s.names.push_back(g.name(v));
    s.succs.push_back(g.successors(v));
    s.preds.push_back(g.predecessors(v));
  }
  s.num_edges = g.num_edges();
  return s;
}

/// a -> b, a -> c, named, with distinct weights.
rg::Digraph small_graph() {
  rg::Digraph g;
  g.add_node(1.0, "a");
  g.add_node(2.0, "b");
  g.add_node(3.0, "c");
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  return g;
}

/// Every mutator, each applied so that it changes the graph it is given.
std::vector<std::pair<std::string, std::function<void(rg::Digraph&)>>>
mutators() {
  return {
      {"add_node", [](rg::Digraph& g) { g.add_node(4.0, "d"); }},
      {"add_edge", [](rg::Digraph& g) { g.add_edge(1, 2); }},
      {"add_edge_if_absent",
       [](rg::Digraph& g) { EXPECT_TRUE(g.add_edge_if_absent(2, 1)); }},
      {"set_name", [](rg::Digraph& g) { g.set_name(1, "renamed"); }},
      {"set_weight", [](rg::Digraph& g) { g.set_weight(2, 9.0); }},
  };
}

/// topology_key's layout, rebuilt from edges(): node count, edge count,
/// then each edge's endpoints, all as native 64-bit integers.
std::string key_from_edges(const rg::Digraph& g) {
  std::string out;
  const auto put = [&out](std::uint64_t v) {
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    out.append(bytes, sizeof v);
  };
  put(g.num_nodes());
  put(g.num_edges());
  for (const auto& e : g.edges()) {
    put(e.from);
    put(e.to);
  }
  return out;
}

/// Generator output plus copies of it mutated by every mutator, and
/// rebuilt twins whose structures are equal but not shared.
std::vector<rg::Digraph> topology_corpus() {
  Rng rng(11);
  std::vector<rg::Digraph> graphs = {
      rg::Digraph(),
      rg::Digraph(3),
      rg::make_chain({1.0}),
      rg::make_chain({1.0, 2.0, 3.0}),
      rg::make_chain({5.0, 5.0, 5.0}),  // a rebuilt twin of the one above
      rg::make_fork({1.0, 2.0, 3.0}),
      rg::make_join({1.0, 2.0, 3.0}),
      rg::make_diamond(3, rng),
      rg::make_random_out_tree(9, rng),
      rg::make_random_in_tree(9, rng),
      rg::make_layered(3, 3, 0.5, rng),
      rg::make_erdos_renyi_dag(10, 0.3, rng),
      rg::make_random_series_parallel(8, rng),
      rg::make_fork_join_chain(2, 3, rng),
      rg::make_tiled_cholesky(3),
      rg::make_tiled_lu(2),
      rg::make_fft(2),
      rg::make_stencil(2, 3, rng),
      small_graph(),
  };
  // The same edges as small_graph() inserted in the other order: the
  // successor lists differ, so the topology does too.
  rg::Digraph swapped(3);
  swapped.add_edge(0, 2);
  swapped.add_edge(0, 1);
  graphs.push_back(swapped);
  const std::size_t generated = graphs.size();
  for (std::size_t i = 0; i < generated; ++i) {
    if (graphs[i].num_nodes() < 3) continue;
    for (const auto& [label, mutate] : mutators()) {
      rg::Digraph copy = graphs[i];
      // Skip an edge mutator whose edge this graph already has.
      if ((label == "add_edge" && copy.has_edge(1, 2)) ||
          (label == "add_edge_if_absent" && copy.has_edge(2, 1))) {
        continue;
      }
      mutate(copy);
      graphs.push_back(std::move(copy));
    }
  }
  return graphs;
}

}  // namespace

TEST(Digraph, AddNodesAndEdges) {
  rg::Digraph g;
  const auto a = g.add_node(2.0, "a");
  const auto b = g.add_node(3.0);
  g.add_edge(a, b);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_FALSE(g.has_edge(b, a));
  EXPECT_EQ(g.name(a), "a");
  EXPECT_DOUBLE_EQ(g.weight(b), 3.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 5.0);
}

TEST(Digraph, RejectsBadEdges) {
  rg::Digraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 1), reclaim::InvalidArgument);  // duplicate
  EXPECT_THROW(g.add_edge(0, 0), reclaim::InvalidArgument);  // self loop
  EXPECT_THROW(g.add_edge(0, 5), reclaim::InvalidArgument);  // unknown node
  EXPECT_FALSE(g.add_edge_if_absent(0, 1));
  EXPECT_TRUE(g.add_edge_if_absent(1, 0));
}

TEST(Digraph, RejectsNegativeWeights) {
  rg::Digraph g;
  EXPECT_THROW(g.add_node(-1.0), reclaim::InvalidArgument);
  const auto v = g.add_node(1.0);
  EXPECT_THROW(g.set_weight(v, -2.0), reclaim::InvalidArgument);
}

TEST(Digraph, SourcesSinksAndReverse) {
  rg::Digraph g(4);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_EQ(g.sources(), (std::vector<rg::NodeId>{0, 1}));
  EXPECT_EQ(g.sinks(), (std::vector<rg::NodeId>{3}));
  const auto r = g.reversed();
  EXPECT_EQ(r.sources(), (std::vector<rg::NodeId>{3}));
  EXPECT_EQ(r.sinks(), (std::vector<rg::NodeId>{0, 1}));
  EXPECT_EQ(r.num_edges(), 3u);
  EXPECT_TRUE(r.has_edge(3, 2));
}

TEST(Digraph, MutatingACopyLeavesTheOriginalUnchanged) {
  const rg::Digraph g = small_graph();
  const Snapshot before = snapshot(g);
  for (const auto& [label, mutate] : mutators()) {
    SCOPED_TRACE(label);
    rg::Digraph copy = g;
    ASSERT_TRUE(copy.same_topology(g));
    mutate(copy);
    EXPECT_NE(snapshot(copy), before);
    EXPECT_EQ(snapshot(g), before);

    // The other way round, through copy assignment: mutating the source
    // leaves an earlier copy as it was.
    rg::Digraph source = g;
    rg::Digraph kept;
    kept = source;
    mutate(source);
    EXPECT_EQ(snapshot(kept), before);
  }
}

TEST(Digraph, WeightChangesAndPresentEdgesKeepTheStructureShared) {
  const rg::Digraph g = small_graph();
  rg::Digraph copy = g;
  copy.set_weight(0, 7.0);
  EXPECT_FALSE(copy.add_edge_if_absent(0, 1));
  // Still one structure: the adjacency lists are the same objects.
  EXPECT_EQ(&copy.successors(0), &g.successors(0));
  EXPECT_DOUBLE_EQ(g.weight(0), 1.0);

  // A reference taken before a mutation of a shared graph keeps showing
  // the structure it was taken from.
  const std::vector<rg::NodeId>& old_succs = copy.successors(1);
  copy.add_edge(1, 2);
  EXPECT_TRUE(old_succs.empty());
  EXPECT_EQ(copy.successors(1), (std::vector<rg::NodeId>{2}));
  EXPECT_NE(&copy.successors(0), &g.successors(0));
}

TEST(Digraph, ReversedIsIndependentOfItsSource) {
  rg::Digraph g = small_graph();
  const Snapshot before = snapshot(g);
  rg::Digraph r = g.reversed();
  const Snapshot r_before = snapshot(r);
  EXPECT_EQ(r.predecessors(0), g.successors(0));

  r.set_weight(0, 8.0);
  r.set_name(0, "root");
  r.add_edge(2, 1);
  r.add_node(1.0, "extra");
  EXPECT_EQ(snapshot(g), before);

  rg::Digraph r2 = g.reversed();
  g.set_weight(1, 6.0);
  g.set_name(1, "left");
  g.add_edge(1, 2);
  EXPECT_EQ(snapshot(r2), r_before);
}

TEST(Digraph, SameTopologyMatchesTheTopologyKey) {
  const std::vector<rg::Digraph> graphs = topology_corpus();
  std::size_t equal_pairs = 0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    for (std::size_t j = 0; j < graphs.size(); ++j) {
      const bool keys_equal = reclaim::engine::topology_key(graphs[i]) ==
                              reclaim::engine::topology_key(graphs[j]);
      EXPECT_EQ(graphs[i].same_topology(graphs[j]), keys_equal)
          << "graphs " << i << " and " << j;
      equal_pairs += keys_equal && i != j ? 1 : 0;
    }
  }
  // Weight- and name-only mutations and the rebuilt twin give pairs of
  // equal topology in distinct objects, shared and unshared.
  EXPECT_GT(equal_pairs, graphs.size() / 2);
}

TEST(Digraph, TopologyKeyIsTheEdgeListEncoding) {
  for (const rg::Digraph& g : topology_corpus()) {
    EXPECT_EQ(reclaim::engine::topology_key(g), key_from_edges(g));
  }
}

TEST(Topo, OrderOnDagAndCycleDetection) {
  rg::Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  expect_valid_topo(g);
  EXPECT_TRUE(rg::is_acyclic(g));
  g.add_edge(2, 0);
  EXPECT_FALSE(rg::is_acyclic(g));
  EXPECT_FALSE(rg::topological_order(g).has_value());
}

TEST(Topo, OrderIsCanonical) {
  rg::Digraph g(4);
  g.add_edge(3, 1);
  const auto order = rg::topological_order(g);
  ASSERT_TRUE(order.has_value());
  // Smallest-id-first Kahn: 0, 2, 3 ready initially.
  EXPECT_EQ(*order, (std::vector<rg::NodeId>{0, 2, 3, 1}));
}

TEST(Topo, LongestPathsOnDiamond) {
  // 0 -> {1 w=5, 2 w=1} -> 3.
  rg::Digraph g;
  g.add_node(1.0);
  g.add_node(5.0);
  g.add_node(1.0);
  g.add_node(2.0);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto to = rg::longest_path_to(g);
  EXPECT_DOUBLE_EQ(to[0], 1.0);
  EXPECT_DOUBLE_EQ(to[1], 6.0);
  EXPECT_DOUBLE_EQ(to[3], 8.0);
  const auto from = rg::longest_path_from(g);
  EXPECT_DOUBLE_EQ(from[0], 8.0);
  EXPECT_DOUBLE_EQ(from[2], 3.0);
  const auto cp = rg::critical_path(g);
  EXPECT_DOUBLE_EQ(cp.length, 8.0);
  EXPECT_EQ(cp.nodes, (std::vector<rg::NodeId>{0, 1, 3}));
}

TEST(Topo, CriticalPathSingleNode) {
  rg::Digraph g;
  g.add_node(4.2);
  const auto cp = rg::critical_path(g);
  EXPECT_DOUBLE_EQ(cp.length, 4.2);
  EXPECT_EQ(cp.nodes.size(), 1u);
}

TEST(Topo, TransitiveClosureAndReduction) {
  rg::Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);  // implied
  const auto reach = rg::transitive_closure(g);
  EXPECT_TRUE(reach[0][2]);
  EXPECT_TRUE(reach[0][1]);
  EXPECT_FALSE(reach[2][0]);
  const auto reduced = rg::transitive_reduction(g);
  EXPECT_EQ(reduced.num_edges(), 2u);
  EXPECT_FALSE(reduced.has_edge(0, 2));
}

TEST(Topo, WeakConnectivity) {
  rg::Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(rg::is_weakly_connected(g));
  g.add_edge(1, 2);
  EXPECT_TRUE(rg::is_weakly_connected(g));
}

TEST(Classify, RecognizesBasicShapes) {
  Rng rng(1);
  EXPECT_EQ(classify_checked(rg::make_chain(5, rng)), rg::GraphShape::kChain);
  EXPECT_EQ(classify_checked(rg::make_fork(4, rng)), rg::GraphShape::kFork);
  EXPECT_EQ(classify_checked(rg::make_join(4, rng)), rg::GraphShape::kJoin);
  rg::Digraph single;
  single.add_node(1.0);
  EXPECT_EQ(classify_checked(single), rg::GraphShape::kSingleTask);
  EXPECT_EQ(classify_checked(rg::Digraph{}), rg::GraphShape::kEmpty);
  rg::Digraph cycle;
  cycle.add_node(1.0);
  cycle.add_node(1.0);
  cycle.add_edge(0, 1);
  cycle.add_edge(1, 0);
  EXPECT_THROW((void)rg::classify(cycle), reclaim::InvalidArgument);
  EXPECT_THROW((void)rg::analyze(cycle), reclaim::InvalidArgument);
}

TEST(Classify, TreesAndSp) {
  Rng rng(2);
  const auto out_tree = rg::make_random_out_tree(20, rng);
  EXPECT_TRUE(rg::is_out_tree(out_tree));
  // A 20-node random tree is exceedingly unlikely to be a chain/fork.
  EXPECT_EQ(classify_checked(out_tree), rg::GraphShape::kOutTree);
  const auto in_tree = rg::make_random_in_tree(20, rng);
  EXPECT_EQ(classify_checked(in_tree), rg::GraphShape::kInTree);
  const auto diamond = rg::make_diamond(3, rng);
  EXPECT_EQ(classify_checked(diamond), rg::GraphShape::kSeriesParallel);
}

TEST(Classify, StencilIsGeneral) {
  Rng rng(3);
  const auto stencil = rg::make_stencil(3, 3, rng);
  EXPECT_EQ(classify_checked(stencil), rg::GraphShape::kGeneral);
}

TEST(Classify, ToStringCoversShapes) {
  EXPECT_EQ(rg::to_string(rg::GraphShape::kChain), "chain");
  EXPECT_EQ(rg::to_string(rg::GraphShape::kGeneral), "general");
  EXPECT_EQ(rg::to_string(rg::GraphShape::kSeriesParallel), "series-parallel");
}

TEST(Generators, ChainShape) {
  const auto g = rg::make_chain({1.0, 2.0, 3.0});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(rg::is_chain(g));
  EXPECT_DOUBLE_EQ(g.weight(1), 2.0);
}

TEST(Generators, ForkAndJoinShapes) {
  const auto fork = rg::make_fork({1.0, 2.0, 3.0, 4.0});
  EXPECT_TRUE(rg::is_fork(fork));
  EXPECT_EQ(fork.out_degree(0), 3u);
  const auto join = rg::make_join({1.0, 2.0, 3.0});
  EXPECT_TRUE(rg::is_join(join));
  EXPECT_EQ(join.in_degree(0), 2u);
}

TEST(Generators, LayeredIsConnectedAcyclic) {
  Rng rng(4);
  const auto g = rg::make_layered(5, 4, 0.4, rng);
  EXPECT_EQ(g.num_nodes(), 20u);
  expect_valid_topo(g);
  // Every non-first-layer node has a predecessor.
  for (rg::NodeId v = 4; v < 20; ++v) EXPECT_GE(g.in_degree(v), 1u);
}

TEST(Generators, ErdosRenyiAcyclic) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = rg::make_erdos_renyi_dag(30, 0.3, rng);
    EXPECT_TRUE(rg::is_acyclic(g));
  }
}

TEST(Generators, RandomSpIsSeriesParallel) {
  Rng rng(6);
  for (std::size_t n : {1u, 2u, 5u, 12u, 30u}) {
    const auto g = rg::make_random_series_parallel(n, rng);
    EXPECT_TRUE(rg::is_acyclic(g));
    EXPECT_TRUE(rg::is_series_parallel(g)) << "n=" << n;
  }
}

TEST(Generators, ForkJoinChainIsSp) {
  Rng rng(7);
  const auto g = rg::make_fork_join_chain(3, 4, rng);
  EXPECT_EQ(g.num_nodes(), 3u * 6u);
  EXPECT_TRUE(rg::is_series_parallel(g));
}

TEST(Generators, TiledCholeskyStructure) {
  const auto g = rg::make_tiled_cholesky(4);
  // t POTRF + sum_k (t-1-k) TRSM + SYRK + GEMMs.
  EXPECT_EQ(g.num_nodes(), 20u);  // 4 + 6 + 6 + 4
  expect_valid_topo(g);
  EXPECT_TRUE(rg::is_weakly_connected(g));
  // The first POTRF is the unique source.
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.name(g.sources().front()), "POTRF(0)");
}

TEST(Generators, TiledLuStructure) {
  const auto g = rg::make_tiled_lu(3);
  // k=0: 1+2+2+4; k=1: 1+1+1+1; k=2: 1  => 14 tasks.
  EXPECT_EQ(g.num_nodes(), 14u);
  expect_valid_topo(g);
  EXPECT_EQ(g.sources().size(), 1u);
}

TEST(Generators, FftStructure) {
  const auto g = rg::make_fft(3);  // 8 points, 3 stages + loads
  EXPECT_EQ(g.num_nodes(), 32u);
  expect_valid_topo(g);
  // All loads are sources; all last-stage tasks are sinks.
  EXPECT_EQ(g.sources().size(), 8u);
  EXPECT_EQ(g.sinks().size(), 8u);
  // Butterfly tasks have exactly two predecessors.
  for (rg::NodeId v = 8; v < 32; ++v) EXPECT_EQ(g.in_degree(v), 2u);
}

TEST(Generators, StencilWavefront) {
  Rng rng(8);
  const auto g = rg::make_stencil(3, 4, rng);
  EXPECT_EQ(g.num_nodes(), 12u);
  expect_valid_topo(g);
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.sinks().size(), 1u);
  EXPECT_EQ(g.num_edges(), 2u * 3u * 4u - 3u - 4u);
}

TEST(Generators, DeterministicInSeed) {
  Rng rng1(99), rng2(99);
  const auto a = rg::make_layered(4, 3, 0.5, rng1);
  const auto b = rg::make_layered(4, 3, 0.5, rng2);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (rg::NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(a.weight(v), b.weight(v));
    EXPECT_EQ(a.successors(v), b.successors(v));
  }
}

TEST(Generators, InvalidArguments) {
  Rng rng(1);
  EXPECT_THROW((void)rg::make_chain(std::vector<double>{}), reclaim::InvalidArgument);
  EXPECT_THROW((void)rg::make_fork({1.0}), reclaim::InvalidArgument);
  EXPECT_THROW((void)rg::make_layered(0, 3, 0.5, rng), reclaim::InvalidArgument);
  EXPECT_THROW((void)rg::make_layered(3, 3, 1.5, rng), reclaim::InvalidArgument);
  EXPECT_THROW((void)rg::make_tiled_cholesky(0), reclaim::InvalidArgument);
  rg::WeightRange bad{5.0, 1.0};
  EXPECT_THROW((void)rg::make_chain(3, rng, bad), reclaim::InvalidArgument);
}

TEST(Dot, ContainsNodesAndEdges) {
  rg::Digraph g;
  g.add_node(1.5, "first");
  g.add_node(2.0);
  g.add_edge(0, 1);
  const auto dot = rg::to_dot(g, "demo");
  EXPECT_NE(dot.find("digraph \"demo\""), std::string::npos);
  EXPECT_NE(dot.find("first"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}
