// Power-model layer tests: StaticPowerLaw math, P_stat = 0 equivalence
// with the seed PowerLaw behavior (bit-identical, across all four energy
// models), the s_crit reduction (optimal speeds never fall below the
// critical speed), and recompute_energy cross-checks of the solver
// bookkeeping under leakage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/continuous/dispatch.hpp"
#include "core/discrete/exact_bb.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "core/vdd/lp_solver.hpp"
#include "graph/generators.hpp"
#include "model/power_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rc = reclaim::core;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Mixed shapes spanning every continuous routing path (closed forms,
/// tree, SP, numeric) plus general DAGs for the discrete/Vdd solvers.
std::vector<rg::Digraph> mixed_graphs(std::uint64_t seed) {
  reclaim::util::Rng rng(seed);
  std::vector<rg::Digraph> graphs;
  graphs.push_back(rg::make_chain({2.0}));
  graphs.push_back(rg::make_chain(6, rng));
  graphs.push_back(rg::make_fork(5, rng));
  graphs.push_back(rg::make_random_out_tree(8, rng));
  graphs.push_back(rg::make_fork_join_chain(2, 3, rng));
  graphs.push_back(rg::make_stencil(3, 3, rng));
  return graphs;
}

void expect_identical(const rc::Solution& a, const rc::Solution& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.energy, b.energy);  // bit-identical, not approximately equal
  EXPECT_EQ(a.method, b.method);
  ASSERT_EQ(a.speeds.size(), b.speeds.size());
  for (std::size_t i = 0; i < a.speeds.size(); ++i) {
    EXPECT_EQ(a.speeds[i], b.speeds[i]);
  }
  ASSERT_EQ(a.profiles.size(), b.profiles.size());
  for (std::size_t i = 0; i < a.profiles.size(); ++i) {
    ASSERT_EQ(a.profiles[i].segments.size(), b.profiles[i].segments.size());
    for (std::size_t s = 0; s < a.profiles[i].segments.size(); ++s) {
      EXPECT_EQ(a.profiles[i].segments[s].speed, b.profiles[i].segments[s].speed);
      EXPECT_EQ(a.profiles[i].segments[s].duration,
                b.profiles[i].segments[s].duration);
    }
  }
}

}  // namespace

TEST(StaticPowerLaw, MatchesDefinition) {
  const rm::StaticPowerLaw p(3.0, 2.0);
  EXPECT_DOUBLE_EQ(p.alpha(), 3.0);
  EXPECT_DOUBLE_EQ(p.p_static(), 2.0);
  EXPECT_DOUBLE_EQ(p.power(2.0), 8.0 + 2.0);
  EXPECT_DOUBLE_EQ(p.energy(2.0, 0.5), 5.0);
  // w * (P_stat/s + s^2) = 3 * (1 + 4).
  EXPECT_DOUBLE_EQ(p.task_energy(3.0, 2.0), 15.0);
  // w^3/d^2 + P_stat * d = 8/16 + 8.
  EXPECT_DOUBLE_EQ(p.window_energy(2.0, 4.0), 8.5);
  EXPECT_DOUBLE_EQ(p.task_energy(0.0, 2.0), 0.0);
  // s_crit = (P_stat/(alpha-1))^(1/alpha) = 1.
  EXPECT_DOUBLE_EQ(p.critical_speed(), 1.0);
  EXPECT_NEAR(rm::StaticPowerLaw(3.0, 0.25).critical_speed(),
              std::cbrt(0.125), 1e-15);
}

TEST(StaticPowerLaw, CriticalSpeedMinimizesTaskEnergy) {
  const rm::StaticPowerLaw p(2.5, 1.3);
  const double s_crit = p.critical_speed();
  const double at_crit = p.task_energy(1.0, s_crit);
  for (double s : {0.25 * s_crit, 0.9 * s_crit, 1.1 * s_crit, 4.0 * s_crit}) {
    EXPECT_GT(p.task_energy(1.0, s), at_crit);
  }
}

TEST(StaticPowerLaw, InvalidInputsThrow) {
  EXPECT_THROW(rm::StaticPowerLaw(1.0, 0.5), reclaim::InvalidArgument);
  EXPECT_THROW(rm::StaticPowerLaw(3.0, -0.1), reclaim::InvalidArgument);
  const rm::StaticPowerLaw p(3.0, 0.5);
  EXPECT_THROW((void)p.power(-1.0), reclaim::InvalidArgument);
  EXPECT_THROW((void)p.task_energy(1.0, 0.0), reclaim::InvalidArgument);
  EXPECT_THROW((void)p.window_energy(1.0, 0.0), reclaim::InvalidArgument);
}

TEST(PowerModel, WrapsBothConcreteModels) {
  const rm::PowerModel pure = rm::PowerLaw(2.0);
  EXPECT_EQ(pure.kind(), rm::PowerModel::Kind::kPowerLaw);
  EXPECT_FALSE(pure.has_static_power());
  EXPECT_DOUBLE_EQ(pure.p_static(), 0.0);
  EXPECT_DOUBLE_EQ(pure.critical_speed(), 0.0);
  EXPECT_EQ(pure.name(), "s^2");

  const rm::PowerModel leaky = rm::StaticPowerLaw(3.0, 0.5);
  EXPECT_EQ(leaky.kind(), rm::PowerModel::Kind::kStaticPowerLaw);
  EXPECT_TRUE(leaky.has_static_power());
  EXPECT_DOUBLE_EQ(leaky.p_static(), 0.5);
  EXPECT_EQ(leaky.name(), "0.5 + s^3");
  EXPECT_DOUBLE_EQ(leaky.dynamic_law().alpha(), 3.0);

  EXPECT_EQ(pure, rm::PowerModel(rm::PowerLaw(2.0)));
  EXPECT_NE(leaky, rm::PowerModel(rm::StaticPowerLaw(3.0, 0.6)));
  // The default-constructed model is the paper's cube law.
  EXPECT_EQ(rm::PowerModel(), rm::PowerModel(rm::PowerLaw(3.0)));
}

TEST(PowerModel, ZeroStaticPowerIsBitIdenticalToPowerLaw) {
  const rm::PowerModel pure = rm::PowerLaw(3.0);
  const rm::PowerModel zero = rm::StaticPowerLaw(3.0, 0.0);
  for (double s : {0.3, 1.0, 1.7, 2.0}) {
    EXPECT_EQ(pure.power(s), zero.power(s));
    EXPECT_EQ(pure.energy(s, 1.3), zero.energy(s, 1.3));
    EXPECT_EQ(pure.task_energy(2.5, s), zero.task_energy(2.5, s));
    EXPECT_EQ(pure.window_energy(2.5, s), zero.window_energy(2.5, s));
  }
  EXPECT_EQ(pure.parallel_compose(1.0, 2.0), zero.parallel_compose(1.0, 2.0));
}

TEST(PowerModel, MakePowerModelPicksTheKind) {
  EXPECT_EQ(rm::make_power_model(3.0, 0.0).kind(),
            rm::PowerModel::Kind::kPowerLaw);
  EXPECT_EQ(rm::make_power_model(3.0, 0.5).kind(),
            rm::PowerModel::Kind::kStaticPowerLaw);
}

// With P_stat = 0 the StaticPowerLaw instance must reproduce the seed
// (PowerLaw) solutions bit-identically under all four energy models.
TEST(LeakageReduction, ZeroPStatReproducesSeedSolutions) {
  const rm::ModeSet modes({0.5, 1.0, 1.4, 2.0});
  const std::vector<rm::EnergyModel> models = {
      rm::ContinuousModel{2.0}, rm::DiscreteModel{modes},
      rm::VddHoppingModel{modes}, rm::IncrementalModel(0.5, 2.0, 0.25)};
  for (const auto& g : mixed_graphs(71)) {
    const double deadline = 1.5 * rc::min_deadline(g, 2.0);
    const auto pure = rc::make_instance(g, deadline, 3.0);
    const auto zero =
        rc::make_instance(g, deadline, rm::StaticPowerLaw(3.0, 0.0));
    for (const auto& model : models) {
      expect_identical(rc::solve(pure, model), rc::solve(zero, model));
    }
  }
}

// The s_crit reduction: no positive-weight task of a Continuous optimum
// ever runs below min(s_crit, s_max), on any routing path.
TEST(LeakageReduction, ContinuousSpeedsNeverFallBelowCriticalSpeed) {
  const double s_max = 2.0;
  for (double p_static : {0.25, 1.0, 4.0, 16.0, 40.0}) {
    const rm::PowerModel power = rm::StaticPowerLaw(3.0, p_static);
    const double floor = std::min(power.critical_speed(), s_max);
    for (const auto& g : mixed_graphs(73)) {
      const double deadline = 1.6 * rc::min_deadline(g, s_max);
      const auto instance = rc::make_instance(g, deadline, power);
      const auto s = rc::solve(instance, rm::ContinuousModel{s_max});
      ASSERT_TRUE(s.feasible) << s.method;
      for (rg::NodeId v = 0; v < g.num_nodes(); ++v) {
        if (g.weight(v) == 0.0) continue;
        EXPECT_GE(s.speeds[v], floor * (1.0 - 1e-6))
            << "task " << v << " via " << s.method << " at P_stat "
            << p_static;
      }
    }
  }
}

// recompute_energy rebuilds the energy from the power model and the
// speeds/profiles alone; solver bookkeeping must agree under leakage.
TEST(LeakageReduction, RecomputeEnergyCrossChecksSolvers) {
  const rm::ModeSet modes({0.5, 1.0, 1.4, 2.0});
  const std::vector<rm::EnergyModel> models = {
      rm::ContinuousModel{2.0}, rm::DiscreteModel{modes},
      rm::VddHoppingModel{modes}, rm::IncrementalModel(0.5, 2.0, 0.25)};
  for (const auto& g : mixed_graphs(79)) {
    const double deadline = 1.5 * rc::min_deadline(g, 2.0);
    const auto instance =
        rc::make_instance(g, deadline, rm::StaticPowerLaw(3.0, 0.7));
    for (const auto& model : models) {
      const auto s = rc::solve(instance, model);
      ASSERT_TRUE(s.feasible) << s.method;
      EXPECT_NEAR(s.energy, rc::recompute_energy(instance, s),
                  1e-9 * std::max(1.0, s.energy))
          << s.method;
    }
  }
}

TEST(LeakageReduction, ChainClampsAtCriticalSpeedGoldenValue) {
  // Chain {1, 2, 1}, D = 8, P(s) = 2 + s^3: s_crit = 1 > W/D = 0.5, so
  // every task runs at s_crit and E = W * (P_stat/1 + 1^2) = 4 * 3 = 12.
  const auto instance =
      rc::make_instance(rg::make_chain({1.0, 2.0, 1.0}), 8.0,
                        rm::StaticPowerLaw(3.0, 2.0));
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.method, "closed-form-chain");
  for (std::size_t v = 0; v < 3; ++v) EXPECT_DOUBLE_EQ(s.speeds[v], 1.0);
  EXPECT_DOUBLE_EQ(s.energy, 12.0);
  // The clamp never pushes past the deadline-driven speed: at D = 2 the
  // chain needs speed 2 > s_crit and the pure-dynamic optimum returns.
  const auto tight = rc::make_instance(rg::make_chain({1.0, 2.0, 1.0}), 2.0,
                                       rm::StaticPowerLaw(3.0, 2.0));
  const auto st = rc::solve_continuous(tight, rm::ContinuousModel{kInf});
  ASSERT_TRUE(st.feasible);
  EXPECT_DOUBLE_EQ(st.speeds[0], 2.0);
  // E = W * (P_stat/2 + 2^2) = 4 * 5 = 20.
  EXPECT_DOUBLE_EQ(st.energy, 20.0);
}

// The leakage-aware branch-and-bound (non-monotone per-mode cost) must
// still match the brute-force enumeration oracle.
TEST(LeakageReduction, DiscreteExactMatchesEnumerationUnderLeakage) {
  const rm::ModeSet modes({0.5, 1.0, 2.0});
  reclaim::util::Rng rng(83);
  std::vector<rg::Digraph> graphs;
  graphs.push_back(rg::make_chain(5, rng));
  graphs.push_back(rg::make_fork(5, rng));
  graphs.push_back(rg::make_stencil(2, 3, rng));
  for (double p_static : {0.0, 0.4, 1.5, 6.0}) {
    for (const auto& g : graphs) {
      const double deadline = 1.4 * rc::min_deadline(g, 2.0);
      const auto instance =
          rc::make_instance(g, deadline, rm::StaticPowerLaw(3.0, p_static));
      const auto bb = rc::solve_discrete_exact(instance, modes);
      const auto oracle = rc::solve_discrete_enumerate(instance, modes);
      ASSERT_TRUE(bb.solution.feasible);
      ASSERT_TRUE(oracle.feasible);
      EXPECT_TRUE(bb.proven_optimal);
      EXPECT_NEAR(bb.solution.energy, oracle.energy,
                  1e-12 * std::max(1.0, oracle.energy))
          << "P_stat " << p_static;
    }
  }
}

TEST(LeakageReduction, VddLpChargesLeakagePerBusySecond) {
  // w = 3, D = 2, modes {1, 2}, P(s) = 3 + s^3. Minimize
  // a*(1+3) + b*(8+3) st a + 2b = 3, a + b <= 2  ->  a = b = 1, E = 15.
  const auto instance = rc::make_instance(rg::make_chain({3.0}), 2.0,
                                          rm::StaticPowerLaw(3.0, 3.0));
  const auto r =
      rc::solve_vdd_lp(instance, rm::VddHoppingModel{rm::ModeSet({1.0, 2.0})});
  ASSERT_TRUE(r.solution.feasible);
  EXPECT_NEAR(r.solution.energy, 15.0, 1e-8);
  EXPECT_NEAR(rc::recompute_energy(instance, r.solution), 15.0, 1e-8);
}

TEST(LeakageReduction, LeakyOptimumIsNeverCheaperThanItsDynamicPart) {
  // Sanity across solvers: the reported energy under leakage is at least
  // the pure-dynamic energy of the same speeds, and at least the
  // pure-dynamic optimum (leakage only ever adds cost).
  for (const auto& g : mixed_graphs(89)) {
    const double deadline = 1.5 * rc::min_deadline(g, 2.0);
    const auto pure = rc::make_instance(g, deadline, 3.0);
    const auto leaky =
        rc::make_instance(g, deadline, rm::StaticPowerLaw(3.0, 1.2));
    const auto s_pure = rc::solve(pure, rm::ContinuousModel{2.0});
    const auto s_leaky = rc::solve(leaky, rm::ContinuousModel{2.0});
    ASSERT_TRUE(s_pure.feasible);
    ASSERT_TRUE(s_leaky.feasible);
    EXPECT_GE(s_leaky.energy, s_pure.energy * (1.0 - 1e-9));
  }
}
