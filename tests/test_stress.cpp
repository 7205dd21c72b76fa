// Stress and optimality-certification suite.
//
// The numeric solver is the reference for general DAGs, where no closed
// form exists to compare against. These tests certify its output directly:
// random feasible perturbations of the optimal durations must never lower
// the energy beyond second-order noise (first-order optimality), across
// graph families, exponents and speed ranges — plus stress coverage of the
// heterogeneous per-task-cap extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/continuous/dispatch.hpp"
#include "core/continuous/numeric_solver.hpp"
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

constexpr double kInf = std::numeric_limits<double>::infinity();

/// First-order optimality certificate: multiplicatively perturb the
/// solution's durations within the feasible box, keep only deadline-
/// feasible perturbations, and check the energy never drops by more than
/// second-order noise.
void expect_perturbation_optimal(const rc::Instance& instance,
                                 const rc::Solution& solution, double s_min,
                                 const std::vector<double>& caps,
                                 std::uint64_t seed) {
  const auto& g = instance.exec_graph;
  const auto base_durations = rs::durations_from_speeds(g, solution.speeds);
  const double eta = 1e-3;
  const double slack_tolerance = 3e-5 * (1.0 + solution.energy);

  Rng rng(seed);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto durations = base_durations;
    for (rg::NodeId v = 0; v < g.num_nodes(); ++v) {
      const double w = g.weight(v);
      if (w == 0.0) continue;
      durations[v] *= 1.0 + eta * rng.uniform(-1.0, 1.0);
      const double cap = caps.empty() ? kInf : caps[v];
      if (cap != kInf) durations[v] = std::max(durations[v], w / cap);
      if (s_min > 0.0) durations[v] = std::min(durations[v], w / s_min);
    }
    if (!rs::meets_deadline(g, durations, instance.deadline, 0.0)) continue;
    ++accepted;
    double energy = 0.0;
    for (rg::NodeId v = 0; v < g.num_nodes(); ++v) {
      const double w = g.weight(v);
      if (w == 0.0) continue;
      energy += instance.power_of(v).task_energy(w, w / durations[v]);
    }
    EXPECT_GE(energy, solution.energy - slack_tolerance)
        << "perturbation " << trial << " improved the 'optimal' energy";
  }
  // The optimum saturates the deadline, so most perturbations are
  // rejected; a few survive by shrinking durations. Require at least one.
  EXPECT_GT(accepted, 0u);
}

/// `g` with task v alone on processor v, capped at caps[v], every
/// processor running the pure power law s^3: per-task caps expressed as a
/// heterogeneous platform.
rc::Instance capped_instance(rg::Digraph g, double deadline,
                             const std::vector<double>& caps) {
  std::vector<rm::ProcessorSpec> specs;
  std::vector<std::size_t> assignment;
  for (std::size_t v = 0; v < caps.size(); ++v) {
    specs.push_back({rm::make_power_model(3.0, 0.0), caps[v]});
    assignment.push_back(v);
  }
  return rc::make_instance(std::move(g), deadline,
                           rm::Platform(std::move(specs)),
                           std::move(assignment));
}

struct StressParam {
  std::uint64_t seed;
  double alpha;
  double slack;
};

class NumericOptimality : public testing::TestWithParam<StressParam> {};

}  // namespace

TEST_P(NumericOptimality, GeneralDagFirstOrderCertificate) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  const auto g = rg::make_erdos_renyi_dag(14, 0.25, rng);
  const double s_max = 2.0;
  const double d = rc::min_deadline(g, s_max) * p.slack;
  auto instance = rc::make_instance(g, d, p.alpha);

  rc::ContinuousOptions force;
  force.force_numeric = true;
  const auto s =
      rc::solve_continuous(instance, rm::ContinuousModel{s_max}, force);
  ASSERT_TRUE(s.feasible);
  rs::validate_constant_speeds(g, s.speeds, rm::ContinuousModel{s_max}, d,
                               1e-6);
  expect_perturbation_optimal(instance, s, 0.0,
                              std::vector<double>(s.speeds.size(), s_max),
                              p.seed * 7 + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NumericOptimality,
    testing::Values(StressParam{1, 3.0, 1.15}, StressParam{2, 3.0, 1.6},
                    StressParam{3, 2.0, 1.3}, StressParam{4, 2.5, 2.2},
                    StressParam{5, 1.5, 1.4}, StressParam{6, 3.0, 3.0}),
    [](const testing::TestParamInfo<StressParam>& info) {
      return "s" + std::to_string(info.param.seed) + "_a" +
             std::to_string(static_cast<int>(info.param.alpha * 10)) + "_k" +
             std::to_string(static_cast<int>(info.param.slack * 100));
    });

TEST(NumericStress, WideRandomAgreementWithDispatch) {
  Rng rng(777);
  for (int trial = 0; trial < 12; ++trial) {
    auto sub = rng.substream(trial);
    rg::Digraph g;
    switch (trial % 4) {
      case 0: g = rg::make_random_out_tree(10, sub); break;
      case 1: g = rg::make_random_series_parallel(9, sub); break;
      case 2: g = rg::make_fork_join_chain(2, 3, sub); break;
      default: g = rg::make_layered(3, 3, 0.5, sub); break;
    }
    const double s_max = 2.0;
    const double d = rc::min_deadline(g, s_max) * sub.uniform(1.1, 2.5);
    auto instance = rc::make_instance(g, d);
    const auto fancy =
        rc::solve_continuous(instance, rm::ContinuousModel{s_max});
    rc::ContinuousOptions force;
    force.force_numeric = true;
    const auto numeric =
        rc::solve_continuous(instance, rm::ContinuousModel{s_max}, force);
    ASSERT_EQ(fancy.feasible, numeric.feasible) << trial;
    if (!fancy.feasible) continue;
    EXPECT_NEAR(numeric.energy, fancy.energy, 5e-5 * fancy.energy)
        << "trial " << trial << " method " << fancy.method;
  }
}

TEST(PerTaskCaps, UniformCapsMatchGlobalCap) {
  Rng rng(801);
  const auto g = rg::make_stencil(3, 3, rng);
  const double d = rc::min_deadline(g, 2.0) * 1.4;
  auto instance = rc::make_instance(g, d);
  const auto global = rc::solve_numeric(instance, rm::ContinuousModel{2.0});
  const auto per_task = rc::solve_numeric(
      capped_instance(g, d, std::vector<double>(g.num_nodes(), 2.0)),
      rm::ContinuousModel{kInf});
  ASSERT_TRUE(global.feasible && per_task.feasible);
  EXPECT_NEAR(per_task.energy, global.energy, 1e-5 * global.energy);
}

TEST(PerTaskCaps, BindingCapClampsAndCostsEnergy) {
  Rng rng(802);
  const auto g = rg::make_stencil(3, 3, rng);
  const double d = rc::min_deadline(g, 2.0) * 1.3;
  auto instance = rc::make_instance(g, d);
  const auto unconstrained =
      rc::solve_numeric(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(unconstrained.feasible);

  // Cap the fastest task well below its unconstrained speed.
  const auto& speeds = unconstrained.speeds;
  const auto hottest = static_cast<rg::NodeId>(
      std::max_element(speeds.begin(), speeds.end()) - speeds.begin());
  std::vector<double> caps(g.num_nodes(), 2.0);
  caps[hottest] = 0.8 * speeds[hottest];

  const auto capped_in = capped_instance(g, d, caps);
  const auto capped = rc::solve_numeric(capped_in, rm::ContinuousModel{2.0});
  if (!capped.feasible) return;  // the cap may make the deadline unreachable
  EXPECT_LE(capped.speeds[hottest], caps[hottest] * (1.0 + 1e-9));
  EXPECT_GE(capped.energy, unconstrained.energy * (1.0 - 1e-9));
  rs::validate_constant_speeds(g, capped.speeds, rm::ContinuousModel{2.0}, d,
                               1e-6);
  expect_perturbation_optimal(capped_in, capped, 0.0, caps, 99);
}

TEST(PerTaskCaps, TwoTaskChainMatchesGridOracle) {
  // Chain {2, 3}, D = 4, caps {1.2, 4}: exhaustive grid over s1.
  const auto s = rc::solve_numeric(
      capped_instance(rg::make_chain({2.0, 3.0}), 4.0, {1.2, 4.0}),
      rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);

  double best = kInf;
  for (int i = 1; i <= 20000; ++i) {
    const double s1 = 1.2 * static_cast<double>(i) / 20000.0;
    const double remaining = 4.0 - 2.0 / s1;
    if (remaining <= 3.0 / 4.0) continue;  // s2 would exceed its cap
    const double s2 = 3.0 / remaining;
    best = std::min(best, 2.0 * s1 * s1 + 3.0 * s2 * s2);
  }
  EXPECT_NEAR(s.energy, best, 1e-4 * best);
}

TEST(PerTaskCaps, InfeasibleWhenCapsTooLow) {
  // Caps {1, 1} against a chain that needs 4/3 average speed.
  const auto instance =
      capped_instance(rg::make_chain({2.0, 2.0}), 3.0, {1.0, 1.0});
  EXPECT_FALSE(
      rc::solve_numeric(instance, rm::ContinuousModel{kInf}).feasible);
}

TEST(PerTaskCaps, BoundaryPinsEveryTaskAtItsCap) {
  // Caps {2, 1}: exactly 1 + 2 = 3 time units.
  const auto s = rc::solve_numeric(
      capped_instance(rg::make_chain({2.0, 2.0}), 3.0, {2.0, 1.0}),
      rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.speeds[0], 2.0);
  EXPECT_DOUBLE_EQ(s.speeds[1], 1.0);
}

TEST(PerTaskCaps, MixedCappedAndUncappedTasks) {
  // One capped, one uncapped task in sequence: the uncapped one absorbs
  // whatever the capped one cannot.
  const auto s = rc::solve_numeric(
      capped_instance(rg::make_chain({2.0, 2.0}), 3.0, {1.0, kInf}),
      rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  EXPECT_LE(s.speeds[0], 1.0 + 1e-9);
  // Oracle over s0 in (2/3 needed? task 0 at its cap is best: d0 = 2,
  // leaving 1 time unit: s1 = 2. Check against grid.
  double best = kInf;
  for (int i = 1; i <= 20000; ++i) {
    const double s0 = static_cast<double>(i) / 20000.0;
    const double remaining = 3.0 - 2.0 / s0;
    if (remaining <= 0.0) continue;
    const double s1 = 2.0 / remaining;
    best = std::min(best, 2.0 * s0 * s0 + 2.0 * s1 * s1);
  }
  EXPECT_NEAR(s.energy, best, 1e-4 * best);
}

TEST(NumericStress, LargerVddInstanceStaysConsistent) {
  Rng rng(803);
  const auto g = rg::make_layered(6, 5, 0.4, rng);  // 30 tasks
  const rm::ModeSet modes({0.5, 1.0, 1.5, 2.0});
  const double d = rc::min_deadline(g, 2.0) * 1.35;
  auto instance = rc::make_instance(g, d);
  const auto cont = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
  const auto vdd = rc::solve_vdd_lp(instance, rm::VddHoppingModel{modes});
  ASSERT_TRUE(cont.feasible && vdd.solution.feasible);
  EXPECT_GE(vdd.solution.energy, cont.energy * (1.0 - 1e-7));
  rs::validate_profiles(g, vdd.solution.profiles, rm::VddHoppingModel{modes}, d,
                        1e-6);
}

TEST(NumericStress, DeepChainNumericStability) {
  // A 200-task chain: the barrier solver must match the closed form.
  Rng rng(804);
  const auto g = rg::make_chain(200, rng);
  const double d = g.total_weight() / 1.1;  // uniform speed 1.1
  auto instance = rc::make_instance(g, d);
  rc::ContinuousOptions force;
  force.force_numeric = true;
  const auto numeric =
      rc::solve_continuous(instance, rm::ContinuousModel{2.0}, force);
  const auto closed = rc::solve_continuous(instance, rm::ContinuousModel{2.0});
  ASSERT_TRUE(numeric.feasible && closed.feasible);
  EXPECT_EQ(closed.method, "closed-form-chain");
  EXPECT_NEAR(numeric.energy, closed.energy, 1e-4 * closed.energy);
}
