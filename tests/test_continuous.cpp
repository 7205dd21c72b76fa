// Tests for the Continuous-model solvers: Theorem 1 closed forms, the
// Theorem 2 tree/SP algorithms, the numeric geometric-programming solver,
// and the dispatcher — all cross-checked against each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/continuous/batch_kernels.hpp"
#include "core/continuous/dispatch.hpp"
#include "core/continuous/numeric_solver.hpp"
#include "core/problem.hpp"
#include "graph/generators.hpp"
#include "graph/sp_tree.hpp"
#include "sched/schedule.hpp"
#include "fuzz_harness.hpp"
#include "util/rng.hpp"

namespace rc = reclaim::core;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;
namespace rs = reclaim::sched;
namespace rt = reclaim::testing;
using reclaim::util::Rng;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void expect_feasible_under(const rc::Instance& instance, const rc::Solution& s,
                           double s_max) {
  ASSERT_TRUE(s.feasible);
  rs::validate_constant_speeds(instance.exec_graph, s.speeds,
                               rm::ContinuousModel{s_max}, instance.deadline,
                               1e-7);
  EXPECT_NEAR(s.energy, rc::recompute_energy(instance, s),
              1e-9 * (1.0 + s.energy));
}

/// `shape`'s kernel forced onto the instance's graph, which may be of a
/// more special shape (the SP kernel on a fork, the tree kernel on a
/// chain): the cross-family checks below compare two closed forms that
/// must agree. `s_max` caps the speeds; no floor applies, so nothing is
/// handed back.
rc::Solution solve_as(const rc::Instance& instance, double s_max,
                      rg::GraphShape shape) {
  rg::ShapeInfo hint;
  hint.shape = shape;
  if (shape == rg::GraphShape::kSeriesParallel) {
    auto tree = rg::sp_decompose(instance.exec_graph);
    EXPECT_TRUE(tree.has_value());
    if (!tree) return {};
    hint.sp_tree = std::make_shared<const rg::SpTree>(std::move(*tree));
  }
  const auto plan =
      rc::plan_kernel(instance, rm::ContinuousModel{s_max}, {}, &hint);
  EXPECT_TRUE(plan.has_value());
  if (!plan) return {};
  const rc::Instance* const ptr = &instance;
  rc::Solution out;
  rc::solve_kernel_run(*plan, &ptr, 1, &out);
  return out;
}

/// Equivalent weight of the decomposition subtree at `id` (Theorem 2's
/// l_alpha algebra, transcribed independently of the kernels): series
/// children add, parallel children combine as (sum w^alpha)^(1/alpha).
double sp_equivalent_weight(const rg::Digraph& g, const rg::SpTree& tree,
                            std::size_t id, double alpha) {
  const auto& node = tree.nodes[id];
  double sum = 0.0;
  switch (node.kind) {
    case rg::SpKind::kLeaf:
      return node.task == rg::kNoNode ? 0.0 : g.weight(node.task);
    case rg::SpKind::kSeries:
      for (std::size_t c : node.children)
        sum += sp_equivalent_weight(g, tree, c, alpha);
      return sum;
    case rg::SpKind::kParallel:
      for (std::size_t c : node.children)
        sum += std::pow(sp_equivalent_weight(g, tree, c, alpha), alpha);
      return std::pow(sum, 1.0 / alpha);
  }
  return 0.0;
}

}  // namespace

TEST(ClosedForm, SingleTask) {
  auto instance = rc::make_instance(rg::make_chain({6.0}), 3.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.speeds[0], 2.0, 1e-12);
  EXPECT_NEAR(s.energy, 6.0 * 4.0, 1e-12);  // w s^2
}

TEST(ClosedForm, SingleTaskInfeasible) {
  auto instance = rc::make_instance(rg::make_chain({6.0}), 1.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
  EXPECT_FALSE(s.feasible);
}

TEST(ClosedForm, ChainUsesOneSpeed) {
  auto instance = rc::make_instance(rg::make_chain({1.0, 2.0, 3.0}), 3.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  for (double v : s.speeds) EXPECT_NEAR(v, 2.0, 1e-12);
  EXPECT_NEAR(s.energy, 6.0 * 4.0, 1e-12);
  expect_feasible_under(instance, s, kInf);
}

TEST(ClosedForm, ChainRespectsSmax) {
  auto instance = rc::make_instance(rg::make_chain({1.0, 2.0, 3.0}), 3.0);
  EXPECT_FALSE(
      rc::solve_continuous(instance, rm::ContinuousModel{1.5}).feasible);
  EXPECT_TRUE(
      rc::solve_continuous(instance, rm::ContinuousModel{2.0}).feasible);
}

TEST(ClosedForm, ForkMatchesTheorem1) {
  // Thm 1: s_0 = ((sum w_i^3)^(1/3) + w_0)/D, s_i = s_0 w_i / l.
  const std::vector<double> w{2.0, 1.0, 2.0, 3.0};
  auto instance = rc::make_instance(rg::make_fork(w), 5.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  const double l = std::cbrt(1.0 + 8.0 + 27.0);
  const double s0 = (l + 2.0) / 5.0;
  EXPECT_NEAR(s.speeds[0], s0, 1e-12);
  for (std::size_t i = 1; i < w.size(); ++i)
    EXPECT_NEAR(s.speeds[i], s0 * w[i] / l, 1e-12);
  expect_feasible_under(instance, s, kInf);
  // The deadline is exactly saturated at the optimum.
  const auto durations =
      rs::durations_from_speeds(instance.exec_graph, s.speeds);
  EXPECT_NEAR(rs::compute_timing(instance.exec_graph, durations).makespan, 5.0,
              1e-9);
}

TEST(ClosedForm, ForkSaturatedBranch) {
  // Force s_0 above s_max: the source is pinned at s_max, leaves share the
  // remaining window D' = D - w0/s_max (the paper's "otherwise" branch).
  // Here (l + w0)/D = ((0.9^3 + 0.8^3)^(1/3) + 4)/2.5 = 2.03 > s_max = 2,
  // and the leaf speeds 0.9/0.5 and 0.8/0.5 stay below s_max.
  const std::vector<double> w{4.0, 0.9, 0.8};
  auto tight = rc::make_instance(rg::make_fork(w), 2.5);
  const rm::ContinuousModel capped{2.0};
  const auto s = rc::solve_continuous(tight, capped);
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.speeds[0], 2.0, 1e-12);
  const double leaf_window = 2.5 - 4.0 / 2.0;
  EXPECT_NEAR(s.speeds[1], 0.9 / leaf_window, 1e-12);
  EXPECT_NEAR(s.speeds[2], 0.8 / leaf_window, 1e-12);
  expect_feasible_under(tight, s, 2.0);
}

TEST(ClosedForm, ForkSaturatedInfeasible) {
  // Even the saturated branch cannot fit: leaves would exceed s_max. (A
  // two-node fork is a chain to the classifier; force the fork kernel.)
  const std::vector<double> w{4.0, 3.0};
  auto instance = rc::make_instance(rg::make_fork(w), 2.5);
  const auto s = solve_as(instance, 2.0, rg::GraphShape::kFork);
  EXPECT_EQ(s.method, "closed-form-fork");
  EXPECT_FALSE(s.feasible);
}

TEST(ClosedForm, ForkWithZeroWeightLeaves) {
  const std::vector<double> w{2.0, 0.0, 3.0};
  auto instance = rc::make_instance(rg::make_fork(w), 4.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.speeds[1], 0.0);
  expect_feasible_under(instance, s, kInf);
}

TEST(ClosedForm, JoinMirrorsFork) {
  const std::vector<double> w{2.0, 1.0, 2.0, 3.0};
  auto fork_instance = rc::make_instance(rg::make_fork(w), 5.0);
  auto join_instance = rc::make_instance(rg::make_join(w), 5.0);
  const auto f = rc::solve_continuous(fork_instance, rm::ContinuousModel{kInf});
  const auto j = rc::solve_continuous(join_instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(f.feasible && j.feasible);
  EXPECT_EQ(j.method, "closed-form-join");
  EXPECT_NEAR(f.energy, j.energy, 1e-12);
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_NEAR(f.speeds[i], j.speeds[i], 1e-12);
  expect_feasible_under(join_instance, j, kInf);
}

TEST(SpSolver, ForkAgreesWithClosedForm) {
  const std::vector<double> w{2.0, 1.0, 2.0, 3.0};
  auto instance = rc::make_instance(rg::make_fork(w), 5.0);
  const auto closed = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  const auto sp = solve_as(instance, kInf, rg::GraphShape::kSeriesParallel);
  ASSERT_TRUE(sp.feasible);
  EXPECT_EQ(sp.method, "series-parallel");
  EXPECT_NEAR(sp.energy, closed.energy, 1e-10);
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_NEAR(sp.speeds[i], closed.speeds[i], 1e-10);
}

TEST(SpSolver, EquivalentWeightOfFork) {
  // W_eq = w0 + (1 + 8 + 27)^(1/3), and the optimum is W_eq^3 / D^2.
  const std::vector<double> w{2.0, 1.0, 2.0, 3.0};
  const auto g = rg::make_fork(w);
  const auto tree = rg::sp_decompose(g);
  ASSERT_TRUE(tree.has_value());
  const double weq = sp_equivalent_weight(g, *tree, tree->root, 3.0);
  EXPECT_NEAR(weq, 2.0 + std::cbrt(36.0), 1e-12);
  const auto s = solve_as(rc::make_instance(g, 5.0), kInf,
                          rg::GraphShape::kSeriesParallel);
  EXPECT_NEAR(s.energy, std::pow(weq, 3.0) / 25.0, 1e-12 * s.energy);
}

TEST(SpSolver, EnergyIsWeqFormula) {
  Rng rng(11);
  const auto g = rg::make_random_series_parallel(15, rng);
  auto instance = rc::make_instance(g, 20.0);
  const auto tree = rg::sp_decompose(g);
  ASSERT_TRUE(tree.has_value());
  const auto s = solve_as(instance, kInf, rg::GraphShape::kSeriesParallel);
  const double weq = sp_equivalent_weight(g, *tree, tree->root, 3.0);
  EXPECT_NEAR(s.energy, std::pow(weq, 3.0) / (20.0 * 20.0),
              1e-9 * (1.0 + s.energy));
  expect_feasible_under(instance, s, kInf);
}

TEST(SpSolver, DeadlineSaturatedAtOptimum) {
  Rng rng(12);
  const auto g = rg::make_fork_join_chain(3, 3, rng);
  auto instance = rc::make_instance(g, 30.0);
  const auto s = solve_as(instance, kInf, rg::GraphShape::kSeriesParallel);
  const auto durations = rs::durations_from_speeds(g, s.speeds);
  EXPECT_NEAR(rs::compute_timing(g, durations).makespan, 30.0, 1e-8);
}

TEST(TreeSolver, ChainAgreesWithClosedForm) {
  auto instance = rc::make_instance(rg::make_chain({1.0, 2.0, 3.0}), 3.0);
  const auto chain = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  const auto tree = solve_as(instance, kInf, rg::GraphShape::kOutTree);
  ASSERT_TRUE(tree.feasible);
  EXPECT_EQ(tree.method, "tree");
  EXPECT_NEAR(tree.energy, chain.energy, 1e-10);
}

TEST(TreeSolver, ForkAgreesWithClosedFormIncludingSaturation) {
  const std::vector<double> w{4.0, 1.0, 1.5};
  for (double deadline : {2.4, 3.0, 5.0}) {
    auto instance = rc::make_instance(rg::make_fork(w), deadline);
    for (double cap : {2.0, 3.0, kInf}) {
      const auto closed =
          rc::solve_continuous(instance, rm::ContinuousModel{cap});
      const auto tree = solve_as(instance, cap, rg::GraphShape::kOutTree);
      ASSERT_EQ(closed.feasible, tree.feasible)
          << "D=" << deadline << " cap=" << cap;
      if (!closed.feasible) continue;
      EXPECT_NEAR(tree.energy, closed.energy, 1e-9 * (1.0 + closed.energy));
      for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(tree.speeds[i], closed.speeds[i], 1e-9);
    }
  }
}

TEST(TreeSolver, InTreeMirrorsOutTree) {
  Rng rng(13);
  const auto out = rg::make_random_out_tree(25, rng);
  auto out_instance = rc::make_instance(out, 30.0);
  auto in_instance = rc::make_instance(out.reversed(), 30.0);
  const auto a = rc::solve_continuous(out_instance, rm::ContinuousModel{2.0});
  const auto b = rc::solve_continuous(in_instance, rm::ContinuousModel{2.0});
  ASSERT_EQ(a.feasible, b.feasible);
  if (a.feasible) {
    EXPECT_NEAR(a.energy, b.energy, 1e-9 * (1.0 + a.energy));
    expect_feasible_under(in_instance, b, 2.0);
  }
}

TEST(TreeSolver, SpeedsDecreaseDownTheTree) {
  Rng rng(14);
  const auto g = rg::make_random_out_tree(30, rng);
  auto instance = rc::make_instance(g, 40.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  for (const auto& e : g.edges()) {
    if (g.weight(e.from) == 0.0 || g.weight(e.to) == 0.0) continue;
    EXPECT_GE(s.speeds[e.from], s.speeds[e.to] - 1e-9);
  }
}

TEST(TreeSolver, InfeasibleWhenDeadlineBelowCriticalPath) {
  Rng rng(15);
  const auto g = rg::make_random_out_tree(20, rng);
  const double d_min = rc::min_deadline(g, 2.0);
  auto instance = rc::make_instance(g, 0.8 * d_min);
  EXPECT_FALSE(
      rc::solve_continuous(instance, rm::ContinuousModel{2.0}).feasible);
}

TEST(NumericSolver, SingleTaskMatchesClosedForm) {
  auto instance = rc::make_instance(rg::make_chain({6.0}), 3.0);
  const auto s = rc::solve_numeric(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.speeds[0], 2.0, 1e-5);
  EXPECT_NEAR(s.energy, 24.0, 1e-4);
}

TEST(NumericSolver, ForkMatchesTheorem1) {
  const std::vector<double> w{2.0, 1.0, 2.0, 3.0};
  auto instance = rc::make_instance(rg::make_fork(w), 5.0);
  const auto closed = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  const auto numeric = rc::solve_numeric(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(numeric.feasible);
  EXPECT_NEAR(numeric.energy, closed.energy, 1e-5 * closed.energy);
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_NEAR(numeric.speeds[i], closed.speeds[i], 1e-4);
}

TEST(NumericSolver, ForkSaturatedMatchesClosedForm) {
  const std::vector<double> w{4.0, 0.9, 0.8};
  auto instance = rc::make_instance(rg::make_fork(w), 2.5);
  const rm::ContinuousModel capped{2.0};
  const auto closed = rc::solve_continuous(instance, capped);
  const auto numeric = rc::solve_numeric(instance, capped);
  ASSERT_TRUE(closed.feasible && numeric.feasible);
  EXPECT_NEAR(numeric.energy, closed.energy, 1e-5 * closed.energy);
  expect_feasible_under(instance, numeric, 2.0);
}

TEST(NumericSolver, TreeAgreement) {
  Rng rng(16);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = rg::make_random_out_tree(12, rng);
    const double d = rc::min_deadline(g, 2.0) * rng.uniform(1.2, 3.0);
    auto instance = rc::make_instance(g, d);
    const auto tree = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
    const auto numeric = rc::solve_numeric(instance, rm::ContinuousModel{2.0});
    ASSERT_TRUE(tree.feasible && numeric.feasible) << "trial " << trial;
    EXPECT_NEAR(numeric.energy, tree.energy, 2e-5 * tree.energy)
        << "trial " << trial;
  }
}

TEST(NumericSolver, SpAgreement) {
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = rg::make_random_series_parallel(10, rng);
    auto instance = rc::make_instance(g, 25.0);
    const auto sp = solve_as(instance, kInf, rg::GraphShape::kSeriesParallel);
    const auto numeric = rc::solve_numeric(instance, rm::ContinuousModel{kInf});
    ASSERT_TRUE(sp.feasible && numeric.feasible);
    EXPECT_NEAR(numeric.energy, sp.energy, 2e-5 * sp.energy)
        << "trial " << trial;
  }
}

TEST(NumericSolver, GeneralDagFeasibleAndDeadlineTight) {
  Rng rng(18);
  const auto g = rg::make_stencil(4, 4, rng);
  const double d = rc::min_deadline(g, 3.0) * 1.8;
  auto instance = rc::make_instance(g, d);
  const auto s = rc::solve_numeric(instance, rm::ContinuousModel{3.0});
  ASSERT_TRUE(s.feasible);
  expect_feasible_under(instance, s, 3.0);
  // At the optimum the deadline is tight (energy strictly decreases in D).
  const auto durations = rs::durations_from_speeds(g, s.speeds);
  EXPECT_NEAR(rs::compute_timing(g, durations).makespan, d, 1e-5 * d);
}

TEST(NumericSolver, InfeasibleDetection) {
  Rng rng(19);
  const auto g = rg::make_stencil(3, 3, rng);
  const double d_min = rc::min_deadline(g, 2.0);
  auto instance = rc::make_instance(g, 0.9 * d_min);
  EXPECT_FALSE(rc::solve_numeric(instance, rm::ContinuousModel{2.0}).feasible);
}

TEST(NumericSolver, BoundaryDeadlineReturnsAllSmax) {
  Rng rng(20);
  const auto g = rg::make_stencil(3, 3, rng);
  const double d_min = rc::min_deadline(g, 2.0);
  auto instance = rc::make_instance(g, d_min);
  const auto s = rc::solve_numeric(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(s.feasible);
  for (rg::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.weight(v) > 0.0) {
      EXPECT_DOUBLE_EQ(s.speeds[v], 2.0);
    }
  }
}

TEST(NumericSolver, SpeedFloorIsHonoured) {
  Rng rng(21);
  const auto g = rg::make_stencil(3, 3, rng);
  const double d = rc::min_deadline(g, 2.0) * 4.0;  // lots of slack
  auto instance = rc::make_instance(g, d);
  rc::NumericOptions options;
  options.s_min = 1.0;
  const auto s = rc::solve_numeric(instance, rm::ContinuousModel{2.0}, options);
  ASSERT_TRUE(s.feasible);
  for (rg::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.weight(v) > 0.0) {
      EXPECT_GE(s.speeds[v], 1.0 - 1e-6);
    }
  }
}

TEST(NumericSolver, DerivesSCritFloorsFromTheInstance) {
  // solve_numeric reads every task's cap and s_crit floor off the
  // instance, so the plain call is the forced dispatch route bit for bit.
  // With four times the minimal deadline the dynamic optimum would crawl
  // near 0.5; the s_crit floor (1 for P = 2 + s^3) holds the tasks there.
  Rng rng(22);
  const auto g = rg::make_stencil(3, 3, rng);
  const double d = rc::min_deadline(g, 2.0) * 4.0;
  const rm::StaticPowerLaw leaky(3.0, 2.0);
  auto instance = rc::make_instance(g, d, leaky);
  const rm::ContinuousModel model{2.0};
  const auto plain = rc::solve_numeric(instance, model);
  rc::ContinuousOptions force;
  force.force_numeric = true;
  const auto forced = rc::solve_continuous(instance, model, force);
  ASSERT_TRUE(plain.feasible && forced.feasible);
  EXPECT_EQ(plain.method, forced.method);
  EXPECT_EQ(plain.energy, forced.energy);
  EXPECT_EQ(plain.speeds, forced.speeds);
  EXPECT_EQ(plain.iterations, forced.iterations);

  const double s_crit = leaky.critical_speed();
  std::size_t at_floor = 0;
  for (rg::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.weight(v) == 0.0) continue;
    EXPECT_GE(plain.speeds[v], s_crit * (1.0 - 1e-12));
    if (plain.speeds[v] <= s_crit * (1.0 + 1e-6)) ++at_floor;
  }
  EXPECT_GE(at_floor, 1u);
}

TEST(NumericSolver, ZeroWeightTasksSupported) {
  rg::Digraph g;
  g.add_node(2.0);
  g.add_node(0.0);
  g.add_node(3.0);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto instance = rc::make_instance(g, 5.0);
  const auto s = rc::solve_numeric(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  // Energetically a 2-task chain of total weight 5 and deadline 5.
  EXPECT_NEAR(s.energy, 5.0 * 1.0, 1e-4);
}

TEST(NumericSolver, AllZeroWeights) {
  rg::Digraph g(3, 0.0);
  g.add_edge(0, 1);
  auto instance = rc::make_instance(g, 1.0);
  const auto s = rc::solve_numeric(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.energy, 0.0);
}

TEST(Dispatch, PicksClosedFormsAndAgreesWithNumeric) {
  Rng rng(22);
  const struct {
    rg::Digraph graph;
    const char* expected;
  } cases[] = {
      {rg::make_chain(6, rng), "closed-form-chain"},
      {rg::make_fork(5, rng), "closed-form-fork"},
      {rg::make_join(5, rng), "closed-form-join"},
      {rg::make_random_out_tree(12, rng), "tree"},
      {rg::make_random_series_parallel(12, rng), "series-parallel"},
      {rg::make_stencil(3, 3, rng), "numeric-barrier"},
  };
  for (const auto& c : cases) {
    const double d = rc::min_deadline(c.graph, 2.0) * 2.0;
    auto instance = rc::make_instance(c.graph, d);
    const auto fancy =
        rc::solve_continuous(instance, rm::ContinuousModel{kInf});
    EXPECT_EQ(fancy.method, c.expected);
    rc::ContinuousOptions force;
    force.force_numeric = true;
    const auto numeric =
        rc::solve_continuous(instance, rm::ContinuousModel{kInf}, force);
    ASSERT_TRUE(fancy.feasible && numeric.feasible);
    EXPECT_NEAR(numeric.energy, fancy.energy, 3e-5 * fancy.energy)
        << c.expected;
  }
}

TEST(Dispatch, SpWithBindingCapFallsBackToNumeric) {
  Rng rng(23);
  const auto g = rg::make_diamond(3, rng);
  const double d_min = rc::min_deadline(g, 2.0);
  auto instance = rc::make_instance(g, 1.05 * d_min);  // cap must bind
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.method, "numeric-barrier");
  expect_feasible_under(instance, s, 2.0);
}

TEST(Dispatch, EmptyGraphTrivial) {
  auto instance = rc::make_instance(rg::Digraph{}, 1.0);
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{1.0});
  EXPECT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.energy, 0.0);
}

TEST(Dispatch, GeneralizedExponentAgreement) {
  Rng rng(24);
  const auto g = rg::make_fork(4, rng);
  for (double alpha : {1.5, 2.0, 2.5}) {
    const double d = rc::min_deadline(g, 2.0) * 2.0;
    auto instance = rc::make_instance(g, d, alpha);
    const auto closed =
        rc::solve_continuous(instance, rm::ContinuousModel{kInf});
    rc::ContinuousOptions force;
    force.force_numeric = true;
    const auto numeric =
        rc::solve_continuous(instance, rm::ContinuousModel{kInf}, force);
    ASSERT_TRUE(closed.feasible && numeric.feasible) << alpha;
    EXPECT_NEAR(numeric.energy, closed.energy, 3e-5 * closed.energy)
        << "alpha=" << alpha;
  }
}

TEST(MonotoneInDeadline, EnergyDecreasesWithSlack) {
  Rng rng(25);
  const auto g = rg::make_layered(4, 3, 0.5, rng);
  const double d_min = rc::min_deadline(g, 2.0);
  double previous = kInf;
  for (double factor : {1.1, 1.5, 2.0, 3.0, 5.0}) {
    auto instance = rc::make_instance(g, factor * d_min);
    const auto s = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
    ASSERT_TRUE(s.feasible);
    EXPECT_LE(s.energy, previous * (1.0 + 1e-9));
    previous = s.energy;
  }
}

// Regression for the shared feasibility tolerance (core::kFeasibilityRelTol):
// instances whose minimum makespan sits exactly at the deadline — or a few
// ulps past it, because D = W / s_max rounds differently than the solver's
// own sum of w_i / s_max — must be feasible and pinned at the caps on every
// routing path, instead of tripping the old ad-hoc 1e-12/1e-9 guards.
TEST(DeadlineTight, ExactlyTightChainIsFeasibleOnEveryPath) {
  // 31 tasks of weight 0.1: W accumulates rounding, and the deadline is
  // computed from the rounded sum, so solver-side re-accumulation lands
  // within ulps of the boundary on either side.
  std::vector<double> weights(31, 0.1);
  const auto g = rg::make_chain(weights);
  const double s_max = 1.3;
  const double deadline = g.total_weight() / s_max;

  auto instance = rc::make_instance(g, deadline);
  const auto closed =
      rc::solve_continuous(instance, rm::ContinuousModel{s_max});
  ASSERT_TRUE(closed.feasible);
  for (rg::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LE(closed.speeds[v], s_max);  // clamped, never above the cap
    EXPECT_GE(closed.speeds[v], s_max * (1.0 - 1e-9));
  }

  rc::ContinuousOptions force;
  force.force_numeric = true;
  const auto numeric =
      rc::solve_continuous(instance, rm::ContinuousModel{s_max}, force);
  ASSERT_TRUE(numeric.feasible) << "numeric solver rejected a tight instance";
  EXPECT_NEAR(numeric.energy, closed.energy, 1e-9 * closed.energy);

  const auto dispatched =
      rc::solve_continuous(instance, rm::ContinuousModel{s_max});
  ASSERT_TRUE(dispatched.feasible);
}

TEST(DeadlineTight, ExactlyTightSingleTaskAndFork) {
  const auto single = rc::make_instance(rg::make_chain({7.0}), 7.0 / 1.7);
  const auto s1 = rc::solve_continuous(single, rm::ContinuousModel{1.7});
  ASSERT_TRUE(s1.feasible);
  EXPECT_LE(s1.speeds[0], 1.7);

  // Fork whose root saturates exactly: w0 = 2, s_max = 2, leaves share
  // the remaining window exactly.
  auto fork = rg::Digraph{};
  const auto root = fork.add_node(2.0);
  const auto l1 = fork.add_node(1.0);
  const auto l2 = fork.add_node(1.0);
  fork.add_edge(root, l1);
  fork.add_edge(root, l2);
  const double deadline = 2.0 / 2.0 + 1.0 / 2.0;  // root + leaves at s_max
  const auto instance = rc::make_instance(fork, deadline);
  const auto s2 = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(s2.feasible);
  for (double v : s2.speeds) EXPECT_LE(v, 2.0);
}

TEST(DeadlineTight, BaselinesAcceptTightDeadlines) {
  std::vector<double> weights(17, 0.3);
  const auto g = rg::make_chain(weights);
  const double s_max = 1.1;
  const auto instance =
      rc::make_instance(g, g.total_weight() / s_max);
  const rm::EnergyModel cont = rm::ContinuousModel{s_max};
  EXPECT_TRUE(rc::solve_no_dvfs(instance, cont).feasible);
  EXPECT_TRUE(rc::solve_uniform(instance, cont).feasible);
  EXPECT_TRUE(rc::solve_path_stretch(instance, cont).feasible);
}

TEST(DeadlineTight, WithinDeadlineHelperIsSymmetricallyTolerant) {
  EXPECT_TRUE(rc::within_deadline(1.0, 1.0));
  EXPECT_TRUE(rc::within_deadline(1.0 + 0.5 * rc::kFeasibilityRelTol, 1.0));
  EXPECT_FALSE(rc::within_deadline(1.0 + 2.0 * rc::kFeasibilityRelTol, 1.0));
  EXPECT_TRUE(rc::within_speed_cap(2.0, 2.0));
  EXPECT_TRUE(
      rc::within_speed_cap(2.0 * (1.0 + 0.5 * rc::kFeasibilityRelTol), 2.0));
  EXPECT_FALSE(
      rc::within_speed_cap(2.0 * (1.0 + 2.0 * rc::kFeasibilityRelTol), 2.0));
}

TEST(NumericSolver, ThousandTaskOutTreesMatchTreeSolver) {
  // Regression for the Newton system's pivot jitter. Judged against the
  // largest Hessian entry (~1e21 late in a solve), the lift hit legitimate
  // pivots, Newton converged only linearly and these solves took ~1300
  // steps to land 1e-8 off. Step counts are deterministic.
  Rng rng(41);
  for (int trial = 0; trial < 3; ++trial) {
    const auto g = rg::make_random_out_tree(1000, rng);
    const auto instance =
        rc::make_instance(g, 1.3 * rc::min_deadline(g, 2.0));
    rc::ContinuousOptions force;
    force.force_numeric = true;
    const auto numeric =
        rc::solve_continuous(instance, rm::ContinuousModel{2.0}, force);
    const auto tree = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
    ASSERT_TRUE(numeric.feasible && tree.feasible) << "trial " << trial;
    EXPECT_EQ(numeric.method, "numeric-barrier");
    EXPECT_NEAR(numeric.energy, tree.energy, 1e-9 * tree.energy)
        << "trial " << trial;
    EXPECT_LE(numeric.iterations, 60u) << "trial " << trial;
  }
}

TEST(NumericSolver, NewtonStepsStayFewOnGeneralDags) {
  // Step-count guard for the primal-dual barrier: general DAGs at n = 25
  // and n = 100 (layered, and 5x5 / 10x10 stencils) from a tight to a
  // loose deadline each solve in at most 40 Newton steps. Step counts are
  // deterministic.
  Rng rng(43);
  for (const std::size_t n : {25u, 100u}) {
    const std::size_t side = n == 25 ? 5 : 10;
    const rg::Digraph graphs[] = {rg::make_layered(n / 5, 5, 0.4, rng),
                                  rg::make_stencil(side, side, rng)};
    for (const auto& g : graphs) {
      for (const double slack : {1.05, 1.3, 2.0, 3.0}) {
        const auto instance =
            rc::make_instance(g, slack * rc::min_deadline(g, 2.0));
        rc::ContinuousOptions force;
        force.force_numeric = true;
        const auto s =
            rc::solve_continuous(instance, rm::ContinuousModel{2.0}, force);
        ASSERT_TRUE(s.feasible) << "n " << n << " slack " << slack;
        EXPECT_EQ(s.method, "numeric-barrier");
        EXPECT_LE(s.iterations, 40u) << "n " << n << " slack " << slack;
      }
    }
  }
}

namespace {

enum class RouteSetting { kHomogeneous, kHeterogeneous, kExactLeakFree };

constexpr std::size_t kRouteFamilies = 5;
constexpr std::size_t kRouteSizes[] = {10, 100, 1000};

/// Family `trial % 5` at size kRouteSizes[trial / 5]: chain, fork,
/// out-tree, in-tree, series-parallel.
rg::Digraph route_app(std::size_t trial, Rng& rng) {
  const std::size_t n = kRouteSizes[trial / kRouteFamilies];
  switch (trial % kRouteFamilies) {
    case 0:
      return rg::make_chain(n, rng);
    case 1:
      return rg::make_fork(n - 1, rng);
    case 2:
      return rg::make_random_out_tree(n, rng);
    case 3:
      return rg::make_random_in_tree(n, rng);
    default:
      return rg::make_random_series_parallel(n, rng);
  }
}

rm::Platform route_platform(RouteSetting setting, std::size_t procs,
                            Rng& rng) {
  switch (setting) {
    case RouteSetting::kHomogeneous:
      return rm::Platform(std::vector<rm::ProcessorSpec>(
          procs, {rm::make_power_model(3.0, 0.0), 2.0}));
    case RouteSetting::kExactLeakFree:
      return rm::Platform(std::vector<rm::ProcessorSpec>(
          procs, {rm::make_power_model(2.5, 0.0), 2.0}));
    case RouteSetting::kHeterogeneous:
      break;
  }
  // One exponent, caps 1.5 or 2 and static power 0 or in [0.05, 0.5]
  // (s_crit floors up to 0.63). A chain's common speed, 1.5 / slack, sits
  // strictly between every floor and cap, so it keeps its closed form;
  // the other families get binding caps on fast tasks and binding floors
  // on slow ones.
  std::vector<rm::ProcessorSpec> specs;
  for (std::size_t p = 0; p < procs; ++p) {
    const double p_static = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.05, 0.5);
    const double cap = rng.bernoulli(0.5) ? 1.5 : 2.0;
    specs.push_back({rm::make_power_model(3.0, p_static), cap});
  }
  return rm::Platform(std::move(specs));
}

/// Barrier route against the closed forms, one trial per (family, size).
/// The reference is the default dispatch: closed forms for chains, forks
/// and trees, the SP algebra unless the cap binds (then the barrier). On
/// the heterogeneous platform only chains have a closed form, so the
/// other families check that a forced solve and a dispatched one agree.
/// Leak-free exact leakage runs the barrier on the duration-charged
/// objective, against the reduction's closed forms it must reproduce.
void check_barrier_routes(RouteSetting setting, std::uint64_t seed) {
  rt::FuzzOptions fuzz;
  fuzz.seed = seed;
  fuzz.trials = kRouteFamilies * std::size(kRouteSizes);
  fuzz.slack_hi = 2.0;
  fuzz.one_task_per_processor = true;
  fuzz.app = route_app;
  fuzz.platform = [setting](std::size_t, std::size_t procs, Rng& rng) {
    return route_platform(setting, procs, rng);
  };
  const rm::ContinuousModel model{2.0};
  rt::run_fuzz(fuzz, [&](const rt::FuzzTrial& t) {
    const std::size_t family = t.index % kRouteFamilies;
    SCOPED_TRACE("trial " + std::to_string(t.index) + ", n = " +
                 std::to_string(t.instance.exec_graph.num_nodes()));
    rc::ContinuousOptions dispatched;
    rc::Solution numeric;
    if (setting == RouteSetting::kExactLeakFree) {
      dispatched.leakage = rc::LeakageMode::kExact;
      numeric =
          rc::solve_numeric(t.instance, model, {.exact_leakage = true});
    } else {
      rc::ContinuousOptions force;
      force.force_numeric = true;
      numeric = rc::solve_continuous(t.instance, model, force);
    }
    const rc::Solution reference =
        rc::solve_continuous(t.instance, model, dispatched);
    ASSERT_TRUE(reference.feasible && numeric.feasible);
    EXPECT_NE(numeric.method.find("numeric"), std::string::npos);
    if (setting != RouteSetting::kHeterogeneous && family < 4) {
      EXPECT_EQ(reference.method.find("numeric"), std::string::npos)
          << reference.method;
    }
    if (setting == RouteSetting::kHeterogeneous && family == 0) {
      EXPECT_EQ(reference.method, "closed-form-chain");
    }
    EXPECT_NEAR(numeric.energy, reference.energy,
                rc::kFeasibilityRelTol * reference.energy)
        << reference.method;
  });
}

/// `g` with node v renamed perm[v].
rg::Digraph relabelled(const rg::Digraph& g,
                       const std::vector<rg::NodeId>& perm) {
  std::vector<rg::NodeId> original(perm.size());
  for (rg::NodeId v = 0; v < perm.size(); ++v) original[perm[v]] = v;
  rg::Digraph h;
  for (rg::NodeId k = 0; k < perm.size(); ++k)
    h.add_node(g.weight(original[k]));
  for (const rg::Edge& e : g.edges()) h.add_edge(perm[e.from], perm[e.to]);
  return h;
}

}  // namespace

TEST(BarrierRoutes, HomogeneousMatchesClosedForms) {
  check_barrier_routes(RouteSetting::kHomogeneous, 501);
}

TEST(BarrierRoutes, HeterogeneousCapsAndFloorsMatchDispatch) {
  check_barrier_routes(RouteSetting::kHeterogeneous, 502);
}

TEST(BarrierRoutes, LeakFreeExactObjectiveMatchesClosedForms) {
  check_barrier_routes(RouteSetting::kExactLeakFree, 503);
}

TEST(BarrierRoutes, RelabelledDagGivesTheSameEnergy) {
  // The Newton system's ordering is computed from the pattern, not from
  // node ids: permuting the ids must not move the answer.
  Rng rng(504);
  const std::vector<rg::Digraph> graphs = {rg::make_layered(40, 5, 0.4, rng),
                                           rg::make_random_out_tree(1000, rng)};
  rc::ContinuousOptions force;
  force.force_numeric = true;
  for (const auto& g : graphs) {
    std::vector<rg::NodeId> perm(g.num_nodes());
    std::iota(perm.begin(), perm.end(), rg::NodeId{0});
    rng.shuffle(perm);
    const double deadline = 1.4 * rc::min_deadline(g, 2.0);
    const auto a = rc::solve_continuous(rc::make_instance(g, deadline),
                                        rm::ContinuousModel{2.0}, force);
    const auto b =
        rc::solve_continuous(rc::make_instance(relabelled(g, perm), deadline),
                             rm::ContinuousModel{2.0}, force);
    ASSERT_TRUE(a.feasible && b.feasible);
    EXPECT_NEAR(a.energy, b.energy, 1e-9 * a.energy)
        << "n = " << g.num_nodes();
  }
}
