// Tests for the Discrete-model solvers: exact branch-and-bound (vs the
// enumeration oracle), the chain DP, and the Theorem 5 CONT-ROUND
// approximation with its certificate.
#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.hpp"
#include "core/continuous/dispatch.hpp"
#include "core/discrete/chain_dp.hpp"
#include "core/discrete/exact_bb.hpp"
#include "core/discrete/round_up.hpp"
#include "core/problem.hpp"
#include "core/vdd/lp_solver.hpp"
#include "graph/generators.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rc = reclaim::core;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;
namespace rs = reclaim::sched;
using reclaim::util::Rng;

namespace {

rm::ModeSet modes(std::initializer_list<double> speeds) {
  return rm::ModeSet(std::vector<double>(speeds));
}

void expect_valid_discrete(const rc::Instance& instance, const rm::ModeSet& m,
                           const rc::Solution& s) {
  ASSERT_TRUE(s.feasible);
  rs::validate_constant_speeds(instance.exec_graph, s.speeds,
                               rm::EnergyModel{rm::DiscreteModel{m}},
                               instance.deadline, 1e-6);
  EXPECT_NEAR(s.energy, rc::recompute_energy(instance, s),
              1e-9 * (1.0 + s.energy));
}

}  // namespace

TEST(ExactBb, SingleTaskPicksCheapestFeasibleMode) {
  auto instance = rc::make_instance(rg::make_chain({3.0}), 2.5);
  const auto m = modes({1.0, 1.5, 2.0});
  const auto result = rc::solve_discrete_exact(instance, m);
  ASSERT_TRUE(result.solution.feasible);
  EXPECT_TRUE(result.proven_optimal);
  // Needs speed >= 3/2.5 = 1.2 -> mode 1.5.
  EXPECT_DOUBLE_EQ(result.solution.speeds[0], 1.5);
  expect_valid_discrete(instance, m, result.solution);
}

TEST(ExactBb, MatchesEnumerationOracle) {
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = rg::make_layered(2, 3, 0.5, rng);  // 6 tasks
    const auto m = modes({0.7, 1.2, 2.0});
    const double d = rc::min_deadline(g, 2.0) * rng.uniform(1.05, 2.0);
    auto instance = rc::make_instance(g, d);
    const auto bb = rc::solve_discrete_exact(instance, m);
    const auto oracle = rc::solve_discrete_enumerate(instance, m);
    ASSERT_EQ(bb.solution.feasible, oracle.feasible) << trial;
    if (!oracle.feasible) continue;
    EXPECT_TRUE(bb.proven_optimal);
    EXPECT_NEAR(bb.solution.energy, oracle.energy, 1e-9 * (1.0 + oracle.energy))
        << trial;
    expect_valid_discrete(instance, m, bb.solution);
  }
}

TEST(ExactBb, ChainMatchesOracle) {
  Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    const auto g = rg::make_chain(5, rng);
    const auto m = modes({0.5, 1.0, 2.0});
    const double d = rc::min_deadline(g, 2.0) * rng.uniform(1.1, 3.0);
    auto instance = rc::make_instance(g, d);
    const auto bb = rc::solve_discrete_exact(instance, m);
    const auto oracle = rc::solve_discrete_enumerate(instance, m);
    ASSERT_EQ(bb.solution.feasible, oracle.feasible) << trial;
    if (oracle.feasible) {
      EXPECT_NEAR(bb.solution.energy, oracle.energy,
                  1e-9 * (1.0 + oracle.energy));
    }
  }
}

TEST(ExactBb, InfeasibleDeadline) {
  auto instance = rc::make_instance(rg::make_chain({4.0, 4.0}), 1.0);
  const auto result = rc::solve_discrete_exact(instance, modes({1.0, 2.0}));
  EXPECT_FALSE(result.solution.feasible);
  EXPECT_TRUE(result.proven_optimal);
}

TEST(ExactBb, WarmStartDoesNotChangeOptimum) {
  Rng rng(43);
  const auto g = rg::make_layered(2, 3, 0.6, rng);
  const auto m = modes({0.8, 1.4, 2.0});
  const double d = rc::min_deadline(g, 2.0) * 1.3;
  auto instance = rc::make_instance(g, d);
  rc::BranchBoundOptions cold;
  cold.warm_start = false;
  const auto warm = rc::solve_discrete_exact(instance, m);
  const auto no_warm = rc::solve_discrete_exact(instance, m, cold);
  ASSERT_TRUE(warm.solution.feasible && no_warm.solution.feasible);
  EXPECT_NEAR(warm.solution.energy, no_warm.solution.energy, 1e-9);
  // Warm starting can only shrink the search tree.
  EXPECT_LE(warm.nodes_explored, no_warm.nodes_explored);
}

TEST(ExactBb, DominatedByVddAndDominatesRoundUp) {
  Rng rng(44);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = rg::make_layered(2, 3, 0.5, rng);
    const auto m = modes({0.7, 1.2, 2.0});
    const double d = rc::min_deadline(g, 2.0) * rng.uniform(1.1, 2.0);
    auto instance = rc::make_instance(g, d);
    const auto bb = rc::solve_discrete_exact(instance, m);
    if (!bb.solution.feasible) continue;
    // Vdd-Hopping relaxes Discrete: E_vdd <= E_disc.
    const auto lp = rc::solve_vdd_lp(instance, rm::VddHoppingModel{m});
    ASSERT_TRUE(lp.solution.feasible);
    EXPECT_LE(lp.solution.energy, bb.solution.energy * (1.0 + 1e-7));
    // CONT-ROUND is a feasible discrete solution: E_disc <= E_round.
    const auto round = rc::solve_round_up(instance, m);
    ASSERT_TRUE(round.solution.feasible);
    EXPECT_LE(bb.solution.energy, round.solution.energy * (1.0 + 1e-7));
  }
}

TEST(ExactBb, ZeroWeightTasksSingleBranch) {
  rg::Digraph g;
  g.add_node(0.0);
  g.add_node(2.0);
  g.add_edge(0, 1);
  auto instance = rc::make_instance(g, 2.0);
  const auto result = rc::solve_discrete_exact(instance, modes({1.0, 2.0}));
  ASSERT_TRUE(result.solution.feasible);
  EXPECT_DOUBLE_EQ(result.solution.speeds[1], 1.0);
  EXPECT_DOUBLE_EQ(result.solution.speeds[0], 0.0);
}

TEST(ExactBb, NodeBudgetAbort) {
  Rng rng(45);
  const auto g = rg::make_layered(3, 4, 0.4, rng);  // 12 tasks
  const auto m = modes({0.6, 0.9, 1.3, 1.7, 2.0});
  const double d = rc::min_deadline(g, 2.0) * 1.5;
  auto instance = rc::make_instance(g, d);
  rc::BranchBoundOptions options;
  options.max_nodes = 50;  // absurdly small
  options.warm_start = true;
  const auto result = rc::solve_discrete_exact(instance, m, options);
  EXPECT_FALSE(result.proven_optimal);
  // The CONT-ROUND incumbent is still returned.
  EXPECT_TRUE(result.solution.feasible);
}

TEST(ChainDp, MatchesExactOnGridAlignedInstances) {
  // Durations land exactly on the grid: DP is exact.
  auto instance = rc::make_instance(rg::make_chain({2.0, 2.0}), 4.0);
  const auto m = modes({1.0, 2.0});
  rc::ChainDpOptions options;
  options.resolution = 8;  // delta = 4 / 16 = 0.25; durations 1 or 2
  const auto dp = rc::solve_chain_dp(instance, m, options);
  const auto exact = rc::solve_discrete_exact(instance, m);
  ASSERT_TRUE(dp.solution.feasible && exact.solution.feasible);
  EXPECT_NEAR(dp.solution.energy, exact.solution.energy, 1e-9);
  expect_valid_discrete(instance, m, dp.solution);
}

TEST(ChainDp, ApproachesExactWithResolution) {
  Rng rng(46);
  const auto g = rg::make_chain(6, rng);
  const auto m = modes({0.6, 1.1, 1.7, 2.0});
  const double d = rc::min_deadline(g, 2.0) * 1.6;
  auto instance = rc::make_instance(g, d);
  const auto exact = rc::solve_discrete_exact(instance, m);
  ASSERT_TRUE(exact.solution.feasible);
  double previous = std::numeric_limits<double>::infinity();
  for (std::size_t k : {4u, 16u, 64u, 256u}) {
    rc::ChainDpOptions options;
    options.resolution = k;
    const auto dp = rc::solve_chain_dp(instance, m, options);
    if (!dp.solution.feasible) continue;  // coarse grids may round past D
    expect_valid_discrete(instance, m, dp.solution);
    // DP energy >= exact optimum, and non-increasing in resolution.
    EXPECT_GE(dp.solution.energy, exact.solution.energy * (1.0 - 1e-9));
    EXPECT_LE(dp.solution.energy, previous * (1.0 + 1e-9));
    previous = dp.solution.energy;
  }
  EXPECT_NEAR(previous, exact.solution.energy,
              0.1 * exact.solution.energy + 1e-9);
}

TEST(ChainDp, RejectsNonChains) {
  Rng rng(47);
  auto instance = rc::make_instance(rg::make_fork(3, rng), 10.0);
  EXPECT_THROW((void)rc::solve_chain_dp(instance, modes({1.0})),
               reclaim::InvalidArgument);
}

TEST(ChainDp, InfeasibleDetected) {
  auto instance = rc::make_instance(rg::make_chain({4.0, 4.0}), 1.0);
  const auto dp = rc::solve_chain_dp(instance, modes({1.0, 2.0}));
  EXPECT_FALSE(dp.solution.feasible);
}

TEST(ChainDp, SingleTask) {
  auto instance = rc::make_instance(rg::make_chain({3.0}), 2.0);
  const auto dp = rc::solve_chain_dp(instance, modes({1.0, 1.5, 2.0}));
  ASSERT_TRUE(dp.solution.feasible);
  EXPECT_DOUBLE_EQ(dp.solution.speeds[0], 1.5);
}

TEST(RoundUp, FeasibleAndCertified) {
  Rng rng(48);
  for (int trial = 0; trial < 8; ++trial) {
    const auto g = rg::make_layered(3, 3, 0.5, rng);
    const rm::IncrementalModel inc(0.5, 2.0, 0.25);
    const double d = rc::min_deadline(g, 2.0) * rng.uniform(1.1, 3.0);
    auto instance = rc::make_instance(g, d);
    const auto result = rc::solve_round_up(instance, inc.modes);
    if (!result.solution.feasible) {
      EXPECT_FALSE(result.relaxation.feasible);
      continue;
    }
    expect_valid_discrete(instance, inc.modes, result.solution);
    const auto cert = rc::certify_round_up(result.solution, result.relaxation,
                                           inc.modes, instance.power(), 1e-9);
    EXPECT_TRUE(cert.holds) << "trial " << trial << " measured "
                            << cert.measured << " certified " << cert.certified;
    // For alpha = 3 the certified factor is (1 + delta/s_min)^2 = 2.25.
    EXPECT_NEAR(cert.certified, std::pow(1.0 + 0.25 / 0.5, 2.0), 1e-6);
  }
}

TEST(RoundUp, BoundHoldsAgainstDiscreteOptimum) {
  // The theorem bounds E_round vs the *discrete optimum*; verify on small
  // instances where branch-and-bound is exact.
  Rng rng(49);
  for (int trial = 0; trial < 6; ++trial) {
    const auto g = rg::make_layered(2, 3, 0.5, rng);
    const rm::IncrementalModel inc(0.5, 2.0, 0.5);
    const double d = rc::min_deadline(g, 2.0) * rng.uniform(1.1, 2.5);
    auto instance = rc::make_instance(g, d);
    const auto round = rc::solve_round_up(instance, inc.modes);
    const auto exact = rc::solve_discrete_exact(instance, inc.modes);
    if (!exact.solution.feasible) continue;
    ASSERT_TRUE(round.solution.feasible);
    const double bound =
        rc::incremental_transfer_bound(0.5, 0.5, instance.power());
    EXPECT_LE(round.solution.energy,
              bound * exact.solution.energy * (1.0 + 1e-6))
        << trial;
  }
}

TEST(RoundUp, TightensWithSmallerDelta) {
  Rng rng(50);
  const auto g = rg::make_layered(3, 3, 0.5, rng);
  const double d = rc::min_deadline(g, 2.0) * 1.8;
  auto instance = rc::make_instance(g, d);
  const auto cont = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(cont.feasible);
  double previous_ratio = std::numeric_limits<double>::infinity();
  for (double delta : {0.5, 0.25, 0.125, 0.0625}) {
    const rm::IncrementalModel inc(0.25, 2.0, delta);
    const auto result = rc::solve_round_up(instance, inc.modes);
    ASSERT_TRUE(result.solution.feasible);
    const double ratio = result.solution.energy / cont.energy;
    EXPECT_GE(ratio, 1.0 - 1e-7);
    EXPECT_LE(ratio, previous_ratio * (1.0 + 1e-4));
    previous_ratio = ratio;
  }
  EXPECT_LT(previous_ratio, 1.2);
}

TEST(RoundUp, InfeasibleWhenRelaxationInfeasible) {
  auto instance = rc::make_instance(rg::make_chain({4.0, 4.0}), 1.0);
  const auto result = rc::solve_round_up(instance, modes({1.0, 2.0}));
  EXPECT_FALSE(result.solution.feasible);
  EXPECT_FALSE(result.relaxation.feasible);
}

TEST(RoundUp, GeneralizedExponentCertificate) {
  Rng rng(51);
  const auto g = rg::make_layered(2, 3, 0.6, rng);
  const rm::IncrementalModel inc(0.5, 2.0, 0.25);
  const double d = rc::min_deadline(g, 2.0) * 1.5;
  for (double alpha : {2.0, 2.5, 3.0}) {
    auto instance = rc::make_instance(g, d, alpha);
    const auto result = rc::solve_round_up(instance, inc.modes);
    ASSERT_TRUE(result.solution.feasible) << alpha;
    const auto cert = rc::certify_round_up(result.solution, result.relaxation,
                                           inc.modes, instance.power(), 1e-9);
    EXPECT_TRUE(cert.holds) << "alpha=" << alpha;
    EXPECT_NEAR(cert.certified, std::pow(1.5, alpha - 1.0), 1e-6);
  }
}

TEST(Analysis, TransferBounds) {
  const rm::PowerLaw p(3.0);
  EXPECT_NEAR(rc::incremental_transfer_bound(0.5, 1.0, p), 2.25, 1e-12);
  EXPECT_NEAR(rc::discrete_transfer_bound(modes({1.0, 1.5, 2.5}), p),
              std::pow(2.0, 2.0), 1e-12);
}

TEST(Analysis, StaticPowerShiftsAllModelsEqually) {
  const double shift = rc::with_static_power(0.0, 2.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(shift, 80.0);
  EXPECT_DOUBLE_EQ(rc::with_static_power(5.0, 2.0, 10.0, 4), 85.0);
}

TEST(Analysis, DeadlineSlack) {
  auto instance = rc::make_instance(rg::make_chain({2.0, 2.0}), 6.0);
  rc::Solution s;
  s.feasible = true;
  s.speeds = {1.0, 1.0};
  EXPECT_NEAR(rc::deadline_slack(instance, s), 2.0, 1e-12);
}
