// Golden-value regression tests: hand-computed optima pinned to exact
// numbers, so algorithmic regressions show up as value drift rather than
// only as cross-solver disagreement.
#include <gtest/gtest.h>

#include <cmath>

#include "core/baselines.hpp"
#include "core/continuous/dispatch.hpp"
#include "core/discrete/exact_bb.hpp"
#include "core/problem.hpp"
#include "core/vdd/lp_solver.hpp"
#include "graph/generators.hpp"

namespace rc = reclaim::core;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

TEST(Golden, SingleTaskEnergyIsWCubedOverDSquared) {
  // E = w^3 / D^2 = 27 / 4.
  auto instance = rc::make_instance(rg::make_chain({3.0}), 2.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  EXPECT_DOUBLE_EQ(s.energy, 27.0 / 4.0);
}

TEST(Golden, TwoTaskChain) {
  // Chain {1, 2}, D = 3: speed 1, E = 1*1 + 2*1 = 3.
  auto instance = rc::make_instance(rg::make_chain({1.0, 2.0}), 3.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  EXPECT_DOUBLE_EQ(s.energy, 3.0);
}

TEST(Golden, UnitForkTheoremOneNumbers) {
  // Fork w0 = 1 with two unit leaves, D = 2:
  // l = 2^(1/3); s0 = (2^(1/3) + 1)/2; s_i = s0/2^(1/3).
  auto instance = rc::make_instance(rg::make_fork({1.0, 1.0, 1.0}), 2.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  const double l = std::cbrt(2.0);
  const double s0 = (l + 1.0) / 2.0;
  EXPECT_NEAR(s.speeds[0], s0, 1e-14);
  EXPECT_NEAR(s.speeds[1], s0 / l, 1e-14);
  // E = s0^2 * (l + 1) = (l+1)^3 / 4.
  EXPECT_NEAR(s.energy, std::pow(l + 1.0, 3.0) / 4.0, 1e-12);
}

TEST(Golden, DiamondEquivalentWeight) {
  // Diamond: src(1) -> {2, 2} -> sink(1); W_eq = 1 + 2*2^(1/3)... no:
  // parallel(2,2) = (8+8)^(1/3) = 2 * 2^(1/3); series adds the endpoints.
  rg::Digraph g;
  const auto a = g.add_node(1.0);
  const auto b = g.add_node(2.0);
  const auto c = g.add_node(2.0);
  const auto d = g.add_node(1.0);
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  auto instance = rc::make_instance(g, 4.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  const double weq = 2.0 + 2.0 * std::cbrt(2.0);
  EXPECT_NEAR(s.energy, std::pow(weq, 3.0) / 16.0, 1e-10);
}

TEST(Golden, VddSingleTaskMixEnergy) {
  // w = 3, D = 2, modes {1, 2}: 1s at speed 2 + 1s at speed 1 -> E = 9.
  auto instance = rc::make_instance(rg::make_chain({3.0}), 2.0);
  const auto r =
      rc::solve_vdd_lp(instance, rm::VddHoppingModel{rm::ModeSet({1.0, 2.0})});
  EXPECT_NEAR(r.solution.energy, 9.0, 1e-8);
}

TEST(Golden, VddChainKnownOptimum) {
  // Chain {2, 2}, D = 3, modes {1, 2}. Required average speed 4/3.
  // Optimal: both tasks mix to average 4/3 (convexity => split evenly):
  // per task: a + b = 1.5, a + 2b = 2 -> b = 0.5, a = 1.0;
  // E per task = 1*1 + 8*0.5 = 5 -> total 10.
  auto instance = rc::make_instance(rg::make_chain({2.0, 2.0}), 3.0);
  const auto r =
      rc::solve_vdd_lp(instance, rm::VddHoppingModel{rm::ModeSet({1.0, 2.0})});
  EXPECT_NEAR(r.solution.energy, 10.0, 1e-8);
}

TEST(Golden, DiscreteTwoTaskKnapsack) {
  // Chain {2, 2}, D = 3, modes {1, 2}: one task at 2, one at 1
  // (duration 1 + 2 = 3). E = 2*4 + 2*1 = 10.
  auto instance = rc::make_instance(rg::make_chain({2.0, 2.0}), 3.0);
  const auto r = rc::solve_discrete_exact(instance, rm::ModeSet({1.0, 2.0}));
  ASSERT_TRUE(r.solution.feasible);
  EXPECT_DOUBLE_EQ(r.solution.energy, 10.0);
}

TEST(Golden, DiscreteMatchesVddWhenNoMixingHelps) {
  // Chain {2, 2}, D = 3: Vdd = 10 (above) and Discrete = 10 — mixing
  // gains nothing here because the knapsack packs exactly.
  auto instance = rc::make_instance(rg::make_chain({2.0, 2.0}), 3.0);
  const auto vdd =
      rc::solve_vdd_lp(instance, rm::VddHoppingModel{rm::ModeSet({1.0, 2.0})});
  const auto bb = rc::solve_discrete_exact(instance, rm::ModeSet({1.0, 2.0}));
  EXPECT_NEAR(vdd.solution.energy, bb.solution.energy, 1e-8);
}

TEST(Golden, UniformBaselineChain) {
  // Chain {2, 2, 2}, D = 8: uniform speed 6/8 = 0.75, E = 6 * 0.5625.
  auto instance = rc::make_instance(rg::make_chain({2.0, 2.0, 2.0}), 8.0);
  const auto s = rc::solve_uniform(instance, rm::ContinuousModel{2.0});
  EXPECT_DOUBLE_EQ(s.energy, 6.0 * 0.5625);
}

TEST(Golden, NoDvfsEnergyIsIndependentOfDeadline) {
  const auto g = rg::make_chain({2.0, 2.0});
  const rm::EnergyModel disc = rm::DiscreteModel{rm::ModeSet({1.0, 2.0})};
  auto a = rc::make_instance(g, 2.0);
  auto b = rc::make_instance(g, 20.0);
  EXPECT_DOUBLE_EQ(rc::solve_no_dvfs(a, disc).energy,
                   rc::solve_no_dvfs(b, disc).energy);
  EXPECT_DOUBLE_EQ(rc::solve_no_dvfs(a, disc).energy, 16.0);  // 4 * 2^2
}

TEST(Golden, PathStretchDiamondNumbers) {
  // Diamond: src(1) -> {b(2), c(1)} -> sink(1), D = 4.
  // Paths through b: 1+2+1 = 4; through c: 1+1+1 = 3; critical = 4.
  // s_src = s_b = s_sink = 1, s_c = 3/4.
  rg::Digraph g;
  const auto a = g.add_node(1.0);
  const auto b = g.add_node(2.0);
  const auto c = g.add_node(1.0);
  const auto d = g.add_node(1.0);
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  auto instance = rc::make_instance(g, 4.0);
  const auto s = rc::solve_path_stretch(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.speeds[a], 1.0);
  EXPECT_DOUBLE_EQ(s.speeds[b], 1.0);
  EXPECT_DOUBLE_EQ(s.speeds[c], 0.75);
  EXPECT_DOUBLE_EQ(s.speeds[d], 1.0);
  EXPECT_DOUBLE_EQ(s.energy, 1.0 + 2.0 + 1.0 * 0.5625 + 1.0);
}

TEST(Golden, SaturatedForkExactNumbers) {
  // Fork {4; 0.9, 0.8}, D = 2.5, s_max = 2 (the E1/E2 saturated case):
  // s0 = 2, window = 0.5, E = 4*4 + 0.9*(1.8)^2 + 0.8*(1.6)^2.
  auto instance = rc::make_instance(rg::make_fork({4.0, 0.9, 0.8}), 2.5);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.energy, 16.0 + 0.9 * 3.24 + 0.8 * 2.56, 1e-12);
}

TEST(Golden, AlphaTwoChain) {
  // alpha = 2: E = sum w * s. Chain {1, 2}, D = 3 -> speed 1, E = 3.
  auto instance = rc::make_instance(rg::make_chain({1.0, 2.0}), 3.0, 2.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  EXPECT_DOUBLE_EQ(s.energy, 3.0);
  // Tighter deadline D = 1.5 -> speed 2, E = 6 (linear in speed).
  auto tight = rc::make_instance(rg::make_chain({1.0, 2.0}), 1.5, 2.0);
  const auto t = rc::solve_continuous(tight, rm::ContinuousModel{kInf});
  EXPECT_DOUBLE_EQ(t.energy, 6.0);
}
