// Unit tests for sched/: mappings, execution graphs, the list scheduler,
// schedule evaluation and validators.
#include <gtest/gtest.h>

#include "graph/classify.hpp"
#include "graph/generators.hpp"
#include "graph/topo.hpp"
#include "sched/execution_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/mapping.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"

namespace rg = reclaim::graph;
namespace rs = reclaim::sched;
namespace rm = reclaim::model;
using reclaim::util::Rng;

TEST(Mapping, AssignAndLookup) {
  rs::Mapping m(2);
  m.assign(0, 0);
  m.assign(1, 1);
  m.assign(0, 2);
  EXPECT_EQ(m.num_processors(), 2u);
  EXPECT_EQ(m.tasks_on(0), (std::vector<rg::NodeId>{0, 2}));
  EXPECT_EQ(m.processor_of(1), 1u);
  EXPECT_THROW((void)m.processor_of(9), reclaim::InvalidArgument);
}

TEST(Mapping, ValidateComplete) {
  rg::Digraph g(3, 1.0);
  rs::Mapping good(2);
  good.assign(0, 0);
  good.assign(0, 1);
  good.assign(1, 2);
  EXPECT_NO_THROW(good.validate_complete(g));

  rs::Mapping missing(2);
  missing.assign(0, 0);
  EXPECT_THROW(missing.validate_complete(g), reclaim::InvalidArgument);

  rs::Mapping duplicated(2);
  duplicated.assign(0, 0);
  duplicated.assign(1, 0);
  duplicated.assign(0, 1);
  duplicated.assign(1, 2);
  EXPECT_THROW(duplicated.validate_complete(g), reclaim::InvalidArgument);
}

TEST(Mapping, CannedMappings) {
  Rng rng(1);
  const auto g = rg::make_layered(3, 3, 0.5, rng);
  const auto single = rs::single_processor_mapping(g);
  EXPECT_EQ(single.num_processors(), 1u);
  EXPECT_NO_THROW(single.validate_complete(g));
  const auto rr = rs::round_robin_mapping(g, 3);
  EXPECT_EQ(rr.num_processors(), 3u);
  EXPECT_NO_THROW(rr.validate_complete(g));
}

TEST(ExecutionGraph, AddsChainingEdges) {
  // Two independent tasks forced into sequence on one processor.
  rg::Digraph g(2, 1.0);
  rs::Mapping m(1);
  m.assign(0, 1);
  m.assign(0, 0);
  const auto exec = rs::build_execution_graph(g, m);
  EXPECT_EQ(exec.num_edges(), 1u);
  EXPECT_TRUE(exec.has_edge(1, 0));
}

TEST(ExecutionGraph, KeepsPrecedenceEdgesWithoutDuplicates) {
  rg::Digraph g(2, 1.0);
  g.add_edge(0, 1);
  rs::Mapping m(1);
  m.assign(0, 0);
  m.assign(0, 1);
  const auto exec = rs::build_execution_graph(g, m);
  EXPECT_EQ(exec.num_edges(), 1u);  // chaining edge == precedence edge
}

TEST(ExecutionGraph, RejectsContradictoryOrder) {
  rg::Digraph g(2, 1.0);
  g.add_edge(0, 1);
  rs::Mapping m(1);
  m.assign(0, 1);  // processor order 1 then 0 contradicts 0 -> 1
  m.assign(0, 0);
  EXPECT_THROW((void)rs::build_execution_graph(g, m), reclaim::InvalidArgument);
}

TEST(ExecutionGraph, RejectsIncompleteMapping) {
  rg::Digraph g(2, 1.0);
  rs::Mapping m(1);
  m.assign(0, 0);
  EXPECT_THROW((void)rs::build_execution_graph(g, m), reclaim::InvalidArgument);
}

TEST(ExecutionGraph, SingleProcessorYieldsChain) {
  Rng rng(2);
  const auto g = rg::make_layered(3, 2, 0.6, rng);
  const auto exec =
      rs::build_execution_graph(g, rs::single_processor_mapping(g));
  // A full single-processor order makes the execution graph contain a
  // Hamiltonian path; its transitive reduction is exactly a chain.
  EXPECT_TRUE(rg::is_chain(rg::transitive_reduction(exec)));
}

TEST(ListScheduler, RespectsPrecedences) {
  Rng rng(3);
  const auto g = rg::make_layered(4, 4, 0.5, rng);
  const auto result = rs::list_schedule(g, 3);
  result.mapping.validate_complete(g);
  for (const auto& e : g.edges())
    EXPECT_GE(result.start[e.to], result.finish[e.from] - 1e-12);
}

TEST(ListScheduler, NoProcessorOverlap) {
  Rng rng(4);
  const auto g = rg::make_layered(4, 4, 0.5, rng);
  const auto result = rs::list_schedule(g, 2);
  for (std::size_t p = 0; p < 2; ++p) {
    const auto& list = result.mapping.tasks_on(p);
    for (std::size_t i = 1; i < list.size(); ++i)
      EXPECT_GE(result.start[list[i]], result.finish[list[i - 1]] - 1e-12);
  }
}

TEST(ListScheduler, MakespanBounds) {
  Rng rng(5);
  const auto g = rg::make_layered(4, 4, 0.5, rng);
  const auto cp = rg::critical_path(g).length;
  const auto one = rs::list_schedule(g, 1);
  EXPECT_NEAR(one.makespan, g.total_weight(), 1e-9);  // serial == total work
  const auto four = rs::list_schedule(g, 4);
  EXPECT_GE(four.makespan, cp - 1e-9);                // >= critical path
  EXPECT_LE(four.makespan, one.makespan + 1e-9);      // more procs never worse here
}

TEST(ListScheduler, ReferenceSpeedScalesDurations) {
  Rng rng(6);
  const auto g = rg::make_layered(3, 3, 0.5, rng);
  const auto slow = rs::list_schedule(g, 2, 1.0);
  const auto fast = rs::list_schedule(g, 2, 2.0);
  EXPECT_NEAR(fast.makespan, slow.makespan / 2.0, 1e-9);
}

TEST(ListScheduler, ExecutionGraphIsConsistent) {
  Rng rng(7);
  const auto g = rg::make_tiled_cholesky(4);
  const auto result = rs::list_schedule(g, 3);
  EXPECT_NO_THROW((void)rs::build_execution_graph(g, result.mapping));
}

TEST(SpeedProfile, Accounting) {
  rs::SpeedProfile p;
  p.segments.push_back({2.0, 1.0});
  p.segments.push_back({1.0, 2.0});
  EXPECT_DOUBLE_EQ(p.total_duration(), 3.0);
  EXPECT_DOUBLE_EQ(p.work(), 4.0);
  EXPECT_DOUBLE_EQ(p.energy(rm::PowerLaw(3.0)), 8.0 + 2.0);
}

TEST(Schedule, DurationsFromSpeeds) {
  rg::Digraph g;
  g.add_node(4.0);
  g.add_node(0.0);
  const auto d = rs::durations_from_speeds(g, {2.0, 0.0});
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_THROW((void)rs::durations_from_speeds(g, {0.0, 0.0}),
               reclaim::InvalidArgument);
}

TEST(Schedule, TimingOnDiamond) {
  rg::Digraph g(4, 1.0);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto timing = rs::compute_timing(g, {1.0, 2.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(timing.finish[0], 1.0);
  EXPECT_DOUBLE_EQ(timing.finish[1], 3.0);
  EXPECT_DOUBLE_EQ(timing.finish[2], 2.0);
  EXPECT_DOUBLE_EQ(timing.start[3], 3.0);
  EXPECT_DOUBLE_EQ(timing.makespan, 4.0);
}

TEST(Schedule, TailsOnDiamond) {
  rg::Digraph g(4, 1.0);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto tail = rs::compute_tails(g, {1.0, 2.0, 1.0, 1.0});
  EXPECT_EQ(tail, (std::vector<double>{3.0, 1.0, 1.0, 0.0}));
}

// start[v] + d + tail[v] is a real path through v when v alone runs for
// d: never above that schedule's makespan beyond rounding, and equal to
// it once v lies on a longest path (d at or past v's float). Layered,
// stencil and out-tree DAGs with random durations, a fifth of them zero.
TEST(Schedule, TailBoundIsSoundForOneTaskStretches) {
  Rng rng(2027);
  for (int trial = 0; trial < 90; ++trial) {
    rg::Digraph g;
    if (trial % 3 == 0) {
      g = rg::make_layered(5, 4, 0.4, rng);
    } else if (trial % 3 == 1) {
      g = rg::make_stencil(4, 5, rng);
    } else {
      g = rg::make_random_out_tree(20, rng);
    }
    std::vector<double> d(g.num_nodes());
    for (double& x : d) x = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.1, 3.0);
    const auto timing = rs::compute_timing(g, d);
    const auto tail = rs::compute_tails(g, d);
    for (rg::NodeId v = 0; v < g.num_nodes(); ++v) {
      // The longest v may run without lengthening the schedule.
      const double fill = timing.makespan - timing.start[v] - tail[v];
      ASSERT_GE(fill, d[v] - 1e-12);
      const double mid = 0.5 * (d[v] + fill);
      const double past = 2.0 * fill + 1.0;
      for (const double dv : {0.0, d[v], mid, fill, fill + 0.5, past}) {
        auto stretched = d;
        stretched[v] = dv;
        const double makespan = rs::compute_timing(g, stretched).makespan;
        const double bound = timing.start[v] + dv + tail[v];
        const double tol = 1e-12 * (1.0 + makespan);
        EXPECT_LE(bound, makespan + tol) << "trial " << trial << " v " << v;
        if (dv >= fill) {
          EXPECT_NEAR(bound, makespan, tol) << "trial " << trial << " v " << v;
        }
      }
    }
  }
}

TEST(Schedule, TotalEnergy) {
  rg::Digraph g;
  g.add_node(2.0);
  g.add_node(3.0);
  const double e = rs::total_energy(g, {1.0, 2.0}, rm::PowerLaw(3.0));
  EXPECT_DOUBLE_EQ(e, 2.0 * 1.0 + 3.0 * 4.0);
}

TEST(Schedule, MeetsDeadline) {
  rg::Digraph g = rg::make_chain({2.0, 2.0});
  EXPECT_TRUE(rs::meets_deadline(g, {1.0, 1.0}, 2.0));
  EXPECT_FALSE(rs::meets_deadline(g, {1.5, 1.0}, 2.0));
}

TEST(Schedule, ValidateConstantSpeeds) {
  rg::Digraph g = rg::make_chain({2.0, 2.0});
  const rm::EnergyModel disc = rm::DiscreteModel{rm::ModeSet({1.0, 2.0})};
  EXPECT_NO_THROW(rs::validate_constant_speeds(g, {2.0, 2.0}, disc, 2.0));
  // Inadmissible speed.
  EXPECT_THROW(rs::validate_constant_speeds(g, {1.5, 2.0}, disc, 4.0),
               reclaim::InvalidArgument);
  // Missed deadline.
  EXPECT_THROW(rs::validate_constant_speeds(g, {1.0, 1.0}, disc, 2.0),
               reclaim::InvalidArgument);
}

TEST(Schedule, ValidateProfiles) {
  rg::Digraph g;
  g.add_node(3.0);
  const rm::EnergyModel vdd = rm::VddHoppingModel{rm::ModeSet({1.0, 2.0})};
  std::vector<rs::SpeedProfile> profiles(1);
  profiles[0].segments = {{2.0, 1.0}, {1.0, 1.0}};  // work = 3 in time 2
  EXPECT_NO_THROW(rs::validate_profiles(g, profiles, vdd, 2.0));
  // Wrong work.
  profiles[0].segments = {{2.0, 1.0}};
  EXPECT_THROW(rs::validate_profiles(g, profiles, vdd, 2.0),
               reclaim::InvalidArgument);
  // Non-mode speed.
  profiles[0].segments = {{1.5, 2.0}};
  EXPECT_THROW(rs::validate_profiles(g, profiles, vdd, 2.0),
               reclaim::InvalidArgument);
}

TEST(Schedule, ZeroWeightTasksNeedNoSpeed) {
  rg::Digraph g;
  g.add_node(0.0);
  g.add_node(2.0);
  g.add_edge(0, 1);
  const rm::EnergyModel cont = rm::ContinuousModel{10.0};
  EXPECT_NO_THROW(rs::validate_constant_speeds(g, {0.0, 1.0}, cont, 2.0));
}
