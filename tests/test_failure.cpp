// Failure injection and degenerate-input tests: every solver and
// substrate must either handle the edge case or fail with a typed,
// descriptive exception — never crash, hang, or return garbage.
#include <gtest/gtest.h>


#include "core/baselines.hpp"
#include "core/continuous/dispatch.hpp"
#include "core/continuous/numeric_solver.hpp"
#include "core/discrete/chain_dp.hpp"
#include "core/discrete/exact_bb.hpp"
#include "core/discrete/round_up.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "core/vdd/lp_solver.hpp"
#include "core/vdd/two_mode.hpp"
#include "graph/generators.hpp"
#include "opt/simplex.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rc = reclaim::core;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;
namespace rs = reclaim::sched;
namespace ro = reclaim::opt;
using reclaim::util::Rng;

TEST(Failure, InstanceValidation) {
  rg::Digraph cyclic(2, 1.0);
  cyclic.add_edge(0, 1);
  cyclic.add_edge(1, 0);
  EXPECT_THROW((void)rc::make_instance(cyclic, 1.0), reclaim::InvalidArgument);
  EXPECT_THROW((void)rc::make_instance(rg::make_chain({1.0}), 0.0),
               reclaim::InvalidArgument);
  EXPECT_THROW((void)rc::make_instance(rg::make_chain({1.0}), -1.0),
               reclaim::InvalidArgument);
  EXPECT_THROW((void)rc::make_instance(rg::make_chain({1.0}), 1.0, 1.0),
               reclaim::InvalidArgument);  // alpha must exceed 1
}

TEST(Failure, SolversRejectWrongShapes) {
  Rng rng(1);
  auto stencil = rc::make_instance(rg::make_stencil(3, 3, rng), 50.0);
  EXPECT_THROW((void)rc::solve_chain_dp(stencil, rm::ModeSet({1.0})),
               reclaim::InvalidArgument);
}

TEST(Failure, SingleNodeEveryModel) {
  auto instance = rc::make_instance(rg::make_chain({2.0}), 2.0);
  const rm::ModeSet modes({1.0, 2.0});
  EXPECT_TRUE(rc::solve(instance, rm::ContinuousModel{2.0}).feasible);
  EXPECT_TRUE(rc::solve(instance, rm::VddHoppingModel{modes}).feasible);
  EXPECT_TRUE(rc::solve(instance, rm::DiscreteModel{modes}).feasible);
  EXPECT_TRUE(
      rc::solve(instance, rm::IncrementalModel(1.0, 2.0, 0.5)).feasible);
}

TEST(Failure, AllZeroWeightGraphEveryModel) {
  rg::Digraph g(4, 0.0);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  auto instance = rc::make_instance(g, 1.0);
  const rm::ModeSet modes({1.0, 2.0});
  for (const rm::EnergyModel& model :
       {rm::EnergyModel{rm::ContinuousModel{2.0}},
        rm::EnergyModel{rm::VddHoppingModel{modes}},
        rm::EnergyModel{rm::DiscreteModel{modes}}}) {
    const auto s = rc::solve(instance, model);
    EXPECT_TRUE(s.feasible) << rm::model_name(model);
    EXPECT_DOUBLE_EQ(s.energy, 0.0) << rm::model_name(model);
  }
  EXPECT_DOUBLE_EQ(rc::solve_no_dvfs(instance, rm::DiscreteModel{modes}).energy,
                   0.0);
  EXPECT_DOUBLE_EQ(rc::solve_uniform(instance, rm::DiscreteModel{modes}).energy,
                   0.0);
  EXPECT_DOUBLE_EQ(
      rc::solve_path_stretch(instance, rm::DiscreteModel{modes}).energy, 0.0);
}

TEST(Failure, ExtremeDeadlines) {
  const auto g = rg::make_chain({1.0, 1.0});
  // Absurdly tight: everything infeasible, nothing crashes.
  auto tight = rc::make_instance(g, 1e-9);
  EXPECT_FALSE(rc::solve(tight, rm::ContinuousModel{2.0}).feasible);
  EXPECT_FALSE(
      rc::solve(tight, rm::DiscreteModel{rm::ModeSet({1.0})}).feasible);
  // Absurdly loose: feasible, energy at the model floor.
  auto loose = rc::make_instance(g, 1e9);
  const auto cont = rc::solve(loose, rm::ContinuousModel{2.0});
  ASSERT_TRUE(cont.feasible);
  EXPECT_LT(cont.energy, 1e-9);
  const auto disc =
      rc::solve(loose, rm::DiscreteModel{rm::ModeSet({0.5, 2.0})});
  ASSERT_TRUE(disc.feasible);
  EXPECT_NEAR(disc.energy, 2.0 * 0.25, 1e-9);  // both at the slowest mode
}

TEST(Failure, ExtremeWeightScales) {
  // 1e6-scale weights: the numeric solver must stay stable.
  const auto g = rg::make_fork({2e6, 1e6, 3e6});
  auto instance = rc::make_instance(g, 4e6);
  rc::ContinuousOptions force;
  force.force_numeric = true;
  const auto numeric =
      rc::solve_continuous(instance, rm::ContinuousModel{2.0}, force);
  const auto closed = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
  ASSERT_EQ(numeric.feasible, closed.feasible);
  if (closed.feasible) {
    EXPECT_NEAR(numeric.energy, closed.energy, 1e-4 * closed.energy);
  }
}

TEST(Failure, TinyWeightScales) {
  const auto g = rg::make_fork({2e-6, 1e-6, 3e-6});
  auto instance = rc::make_instance(g, 4e-6);
  rc::ContinuousOptions force;
  force.force_numeric = true;
  const auto numeric =
      rc::solve_continuous(instance, rm::ContinuousModel{2.0}, force);
  const auto closed = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
  ASSERT_EQ(numeric.feasible, closed.feasible);
  if (closed.feasible) {
    EXPECT_NEAR(numeric.energy, closed.energy, 1e-4 * closed.energy);
  }
}

TEST(Failure, NumericSolverInvalidSpeedRange) {
  auto instance = rc::make_instance(rg::make_chain({1.0}), 2.0);
  rc::NumericOptions options;
  options.s_min = 3.0;  // above s_max
  EXPECT_THROW(
      (void)rc::solve_numeric(instance, rm::ContinuousModel{2.0}, options),
      reclaim::InvalidArgument);
}

TEST(Failure, DegenerateSpeedRangeCollapses) {
  // s_min == s_max: the only continuous policy is the single speed.
  auto instance = rc::make_instance(rg::make_chain({2.0, 2.0}), 5.0);
  rc::NumericOptions options;
  options.s_min = 2.0;
  const auto s = rc::solve_numeric(instance, rm::ContinuousModel{2.0}, options);
  ASSERT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.speeds[0], 2.0);
  EXPECT_DOUBLE_EQ(s.speeds[1], 2.0);
}

TEST(Failure, BranchAndBoundNodeBudgetReportsAbort) {
  Rng rng(2);
  const auto g = rg::make_layered(3, 5, 0.4, rng);
  auto instance = rc::make_instance(g, 1.4 * rc::min_deadline(g, 2.0));
  rc::BranchBoundOptions options;
  options.max_nodes = 10;
  options.warm_start = false;
  const auto result =
      rc::solve_discrete_exact(instance, rm::ModeSet({0.5, 1.0, 2.0}), options);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_LE(result.nodes_explored, 10u);
}

TEST(Failure, EnumerationOracleRefusesLargeInstances) {
  Rng rng(3);
  const auto g = rg::make_layered(4, 4, 0.5, rng);
  auto instance = rc::make_instance(g, 100.0);
  EXPECT_THROW((void)rc::solve_discrete_enumerate(instance, rm::ModeSet({1.0})),
               reclaim::InvalidArgument);
}

TEST(Failure, SimplexPivotBudget) {
  // A solvable LP with an absurd pivot budget of 1 must raise, not loop.
  ro::LinearProgram lp;
  const auto x = lp.add_variable(-1.0);
  const auto y = lp.add_variable(-2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ro::Relation::kLessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}}, ro::Relation::kLessEqual, 2.0});
  ro::SimplexOptions options;
  options.max_pivots = 1;
  EXPECT_THROW((void)ro::solve_lp(lp, options), reclaim::NumericalError);
}

TEST(Failure, VddWithUnreachableModes) {
  // Deadline requires average speed above the top mode: infeasible.
  auto instance = rc::make_instance(rg::make_chain({10.0}), 1.0);
  const rm::VddHoppingModel model{rm::ModeSet({1.0, 2.0})};
  EXPECT_FALSE(rc::solve_vdd_lp(instance, model).solution.feasible);
  EXPECT_FALSE(rc::solve_vdd_two_mode(instance, model).feasible);
}

TEST(Failure, RoundUpWithSingleMode) {
  // One mode: CONT-ROUND degenerates to "that mode everywhere".
  auto instance = rc::make_instance(rg::make_chain({1.0, 1.0}), 3.0);
  const auto result = rc::solve_round_up(instance, rm::ModeSet({1.0}));
  ASSERT_TRUE(result.solution.feasible);
  EXPECT_DOUBLE_EQ(result.solution.speeds[0], 1.0);
  EXPECT_DOUBLE_EQ(result.solution.energy, 2.0);
  // Certified factor with zero gap collapses to ~1.
  EXPECT_NEAR(result.certified_factor, 1.0, 1e-6);
}

TEST(Failure, ChainDpResolutionOne) {
  auto instance = rc::make_instance(rg::make_chain({2.0, 2.0}), 4.0);
  rc::ChainDpOptions options;
  options.resolution = 1;  // 2 grid cells total
  const auto dp =
      rc::solve_chain_dp(instance, rm::ModeSet({1.0, 2.0}), options);
  // Coarse but well-defined; if feasible it must validate.
  if (dp.solution.feasible) {
    rs::validate_constant_speeds(instance.exec_graph, dp.solution.speeds,
                                 rm::DiscreteModel{rm::ModeSet({1.0, 2.0})},
                                 instance.deadline, 1e-7);
  }
}

TEST(Failure, EmptyGraphAcrossTheBoard) {
  auto instance = rc::make_instance(rg::Digraph{}, 1.0);
  const rm::ModeSet modes({1.0});
  EXPECT_TRUE(rc::solve(instance, rm::ContinuousModel{1.0}).feasible);
  EXPECT_TRUE(rc::solve(instance, rm::VddHoppingModel{modes}).feasible);
  EXPECT_TRUE(rc::solve(instance, rm::DiscreteModel{modes}).feasible);
  EXPECT_TRUE(rc::solve_no_dvfs(instance, rm::DiscreteModel{modes}).feasible);
  EXPECT_TRUE(
      rc::solve_path_stretch(instance, rm::DiscreteModel{modes}).feasible);
}

TEST(Failure, DeadlineExactlyAtCriticalPath) {
  // D == D_min exactly: feasible boundary, all solvers agree on all-s_max.
  const auto g = rg::make_chain({2.0, 2.0});
  auto instance = rc::make_instance(g, 2.0);  // (2+2)/2.0 with s_max = 2
  const auto cont = rc::solve(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(cont.feasible);
  EXPECT_NEAR(cont.energy, 16.0, 1e-6);
  const auto bb = rc::solve_discrete_exact(instance, rm::ModeSet({1.0, 2.0}));
  ASSERT_TRUE(bb.solution.feasible);
  EXPECT_DOUBLE_EQ(bb.solution.energy, 16.0);
}

TEST(Failure, DisconnectedGraphsAreFine) {
  rg::Digraph g;
  g.add_node(2.0);
  g.add_node(3.0);  // two isolated tasks
  auto instance = rc::make_instance(g, 2.0);
  const auto cont = rc::solve(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(cont.feasible);
  // Independent tasks: each at w/D.
  EXPECT_NEAR(cont.speeds[0], 1.0, 1e-9);
  EXPECT_NEAR(cont.speeds[1], 1.5, 1e-9);
}
