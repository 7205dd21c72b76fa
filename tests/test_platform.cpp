// Heterogeneous-platform tests: model::Platform basics, Instance
// accessors, the uniform-Platform bit-identity regression (a homogeneous
// Platform must reproduce the single-PowerModel paths exactly, across
// every solver family), hand-computed heterogeneous optima (per-task
// s_crit floors and caps), per-processor idle/busy accounting, and the
// engine's mapped batch API (race-to-idle route + memo soundness across
// distinct platforms).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/analysis.hpp"
#include "core/baselines.hpp"
#include "core/continuous/dispatch.hpp"
#include "core/continuous/race_to_idle.hpp"
#include "core/discrete/chain_dp.hpp"
#include "core/discrete/round_up.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "engine/instance_key.hpp"
#include "engine/reclaim_engine.hpp"
#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "sched/execution_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rc = reclaim::core;
namespace re = reclaim::engine;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;
namespace rs = reclaim::sched;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

/// Two-task chain T0 -> T1 with T0 on processor 0 and T1 on processor 1.
rc::Instance two_proc_chain(double w0, double w1, double deadline,
                            const rm::ProcessorSpec& p0,
                            const rm::ProcessorSpec& p1) {
  auto g = rg::make_chain({w0, w1});
  rs::Mapping mapping(2);
  mapping.assign(0, 0);
  mapping.assign(1, 1);
  return rc::make_instance(std::move(g), deadline,
                           rm::Platform({p0, p1}), mapping);
}

}  // namespace

TEST(Platform, BasicsAndValidation) {
  const rm::Platform deflt;
  EXPECT_EQ(deflt.size(), 1u);
  EXPECT_TRUE(deflt.homogeneous());
  EXPECT_FALSE(deflt.has_sleep());
  EXPECT_EQ(deflt.cap(0), kInf);

  const auto pm = rm::make_power_model(3.0, 0.5);
  const rm::Platform single(pm);  // implicit PowerModel conversion
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(single.power(0), pm);

  const auto uni = rm::Platform::uniform(4, pm, 2.0);
  EXPECT_EQ(uni.size(), 4u);
  EXPECT_TRUE(uni.homogeneous());
  EXPECT_EQ(uni.cap(3), 2.0);

  const rm::Platform hetero(
      {{pm, 2.0},
       {rm::make_power_model(2.5, 0.0,
                             rm::make_sleep_spec(1.0, 0.1, 2.0)),
        1.5}});
  EXPECT_FALSE(hetero.homogeneous());
  EXPECT_TRUE(hetero.has_sleep());
  EXPECT_FALSE(rm::Platform({{pm, 2.0}}).has_sleep());

  EXPECT_THROW((void)rm::Platform(std::vector<rm::ProcessorSpec>{}),
               reclaim::InvalidArgument);
  EXPECT_THROW((void)rm::Platform({{pm, 0.0}}), reclaim::InvalidArgument);
  EXPECT_THROW((void)rm::Platform::uniform(0, pm), reclaim::InvalidArgument);
}

TEST(Platform, InstanceAccessorsAndHomogeneity) {
  const auto pure = rm::make_power_model(3.0, 0.0);
  const auto leaky = rm::make_power_model(3.0, 2.0);
  auto g = rg::make_chain({1.0, 1.0, 1.0});
  rs::Mapping mapping(2);
  mapping.assign(0, 0);
  mapping.assign(1, 1);
  mapping.assign(0, 2);

  const auto hetero = rc::make_instance(
      g, 10.0, rm::Platform({{pure, 2.0}, {leaky, 1.5}}), mapping);
  EXPECT_EQ(hetero.processor_of(0), 0u);
  EXPECT_EQ(hetero.processor_of(1), 1u);
  EXPECT_EQ(hetero.processor_of(2), 0u);
  EXPECT_EQ(hetero.power_of(1), leaky);
  EXPECT_EQ(hetero.cap_of(1), 1.5);
  EXPECT_FALSE(hetero.homogeneous_tasks());
  EXPECT_THROW((void)hetero.power(), reclaim::InvalidArgument);

  // Same platform, homogeneous specs: tasks agree, power() works.
  const auto uniform = rc::make_instance(
      g, 10.0, rm::Platform::uniform(2, leaky, 2.0), mapping);
  EXPECT_TRUE(uniform.homogeneous_tasks());
  EXPECT_EQ(uniform.power(), leaky);

  // Pre-platform instances: empty assignment, processor 0 everywhere.
  const auto classic = rc::make_instance(g, 10.0, leaky);
  EXPECT_TRUE(classic.assignment.empty());
  EXPECT_TRUE(classic.homogeneous_tasks());
  EXPECT_EQ(classic.power_of(2), leaky);
  EXPECT_EQ(classic.cap_of(2), kInf);

  // Validation: platform/mapping size mismatch, bad assignment entries.
  EXPECT_THROW((void)rc::make_instance(g, 10.0, rm::Platform(pure), mapping),
               reclaim::InvalidArgument);
  EXPECT_THROW((void)rc::make_instance(g, 10.0, rm::Platform(pure),
                                       std::vector<std::size_t>{0, 1, 0}),
               reclaim::InvalidArgument);
  EXPECT_THROW((void)rc::make_instance(g, 10.0, rm::Platform(pure),
                                       std::vector<std::size_t>{0, 0}),
               reclaim::InvalidArgument);
}

TEST(Platform, UniformPlatformBitIdenticalAcrossSolverFamilies) {
  // The acceptance regression: a homogeneous Platform of any size must
  // route every solver family exactly as the single embedded PowerModel
  // did — bit-identical solutions, not approximately equal.
  reclaim::util::Rng rng(7);
  std::vector<rg::Digraph> apps;
  apps.push_back(rg::make_chain(6, rng));
  apps.push_back(rg::make_fork(5, rng));
  apps.push_back(rg::make_random_out_tree(8, rng));
  apps.push_back(rg::make_fork_join_chain(2, 3, rng));
  apps.push_back(rg::make_stencil(3, 3, rng));

  const auto pm = rm::make_power_model(3.0, 0.5,
                                       rm::make_sleep_spec(0.8, 0.1, 1.0));
  const std::vector<rm::EnergyModel> models = {
      rm::ContinuousModel{2.0},
      rm::DiscreteModel{rm::ModeSet({0.5, 1.0, 1.5, 2.0})},
      rm::VddHoppingModel{rm::ModeSet({0.5, 1.0, 1.5, 2.0})},
      rm::IncrementalModel(0.5, 2.0, 0.25)};

  for (const auto& app : apps) {
    const auto mapping = rs::list_schedule(app, 2).mapping;
    const auto exec = rs::build_execution_graph(app, mapping);
    const double deadline = 1.5 * rc::min_deadline(exec, 2.0);
    const auto classic = rc::make_instance(exec, deadline, pm);
    const auto platformed = rc::make_instance(
        exec, deadline, rm::Platform::uniform(2, pm), mapping);
    ASSERT_TRUE(platformed.homogeneous_tasks());

    for (const auto& model : models) {
      expect_identical(rc::solve(classic, model), rc::solve(platformed, model));
    }
    for (auto* baseline :
         {rc::solve_no_dvfs, rc::solve_uniform, rc::solve_path_stretch}) {
      expect_identical(baseline(classic, models[0]),
                       baseline(platformed, models[0]));
    }

    // Race-to-idle: crawl, race decision and platform splits all agree.
    const auto r_classic = rc::solve_race_to_idle(
        classic, rm::ContinuousModel{2.0}, mapping);
    const auto r_platformed = rc::solve_race_to_idle(
        platformed, rm::ContinuousModel{2.0}, mapping);
    expect_identical(r_classic.solution, r_platformed.solution);
    EXPECT_EQ(r_classic.raced, r_platformed.raced);
    EXPECT_EQ(r_classic.speedup, r_platformed.speedup);
    EXPECT_EQ(r_classic.crawl.total(), r_platformed.crawl.total());
    EXPECT_EQ(r_classic.chosen.total(), r_platformed.chosen.total());
  }

  // Chain DP (the engine's large-discrete-chain route).
  auto chain = rg::make_chain(20, rng);
  const double d = 1.4 * rc::min_deadline(chain, 2.0);
  const auto mapping = rs::single_processor_mapping(chain);
  const rm::ModeSet modes({0.5, 1.0, 2.0});
  expect_identical(
      rc::solve_chain_dp(rc::make_instance(chain, d, pm), modes).solution,
      rc::solve_chain_dp(rc::make_instance(chain, d,
                                           rm::Platform::uniform(1, pm),
                                           mapping),
                         modes)
          .solution);
}

TEST(Platform, HeteroChainHandComputedOptimum) {
  // T0 (pure s^3) -> T1 (P_stat = 2, s_crit = 1), weights 1/1, D = 4.
  // The reduced problem minimizes 1/d0^2 + 1/d1^2 s.t. d0 + d1 <= 4 and
  // d1 <= 1 (T1's s_crit floor): d1 pins at 1, d0 = 3. Hence speeds
  // (1/3, 1) and energy (1/3)^2 + (2/1 + 1^2) = 1/9 + 3.
  const auto instance = two_proc_chain(
      1.0, 1.0, 4.0, {rm::make_power_model(3.0, 0.0), kInf},
      {rm::make_power_model(3.0, 2.0), kInf});
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.method, "numeric-barrier");  // the floor binds: no closed form
  EXPECT_NEAR(s.speeds[0], 1.0 / 3.0, 1e-5);
  EXPECT_NEAR(s.speeds[1], 1.0, 1e-5);
  EXPECT_NEAR(s.energy, 1.0 / 9.0 + 3.0, 1e-5);
  EXPECT_NEAR(rc::recompute_energy(instance, s), s.energy, 1e-9);
}

TEST(Platform, HeteroChainClosedFormWhenExact) {
  // Same chain at D = 2: the common speed W/D = 1 clears T1's floor
  // exactly, so the single-exponent chain closed form applies: both tasks
  // at speed 1, energy 1 + (2 + 1) = 4, all exact.
  const auto instance = two_proc_chain(
      1.0, 1.0, 2.0, {rm::make_power_model(3.0, 0.0), kInf},
      {rm::make_power_model(3.0, 2.0), kInf});
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.method, "closed-form-chain");
  EXPECT_DOUBLE_EQ(s.speeds[0], 1.0);
  EXPECT_DOUBLE_EQ(s.speeds[1], 1.0);
  EXPECT_DOUBLE_EQ(s.energy, 4.0);

  // Mixed exponents must abandon the closed form even with no floor.
  const auto mixed = two_proc_chain(
      1.0, 1.0, 4.0, {rm::make_power_model(2.5, 0.0), kInf},
      {rm::make_power_model(3.0, 0.0), kInf});
  const auto sm = rc::solve_continuous(mixed, rm::ContinuousModel{2.0});
  ASSERT_TRUE(sm.feasible);
  EXPECT_EQ(sm.method, "numeric-barrier");
  EXPECT_NEAR(rc::recompute_energy(mixed, sm), sm.energy, 1e-9);
}

TEST(Platform, HeteroSingleTaskFloorsAndCaps) {
  auto g = rg::make_chain({1.0});
  rs::Mapping mapping(1);
  mapping.assign(0, 0);
  const auto leaky = rm::make_power_model(3.0, 2.0);  // s_crit = 1

  // Floor binds: w/D = 0.1 < s_crit -> run at s_crit, E = 2/1 + 1 = 3.
  const auto floored = rc::make_instance(
      g, 10.0, rm::Platform({{leaky, kInf}}), mapping);
  const auto s1 = rc::solve_continuous(floored, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s1.feasible);
  EXPECT_EQ(s1.method, "closed-form-single");
  EXPECT_DOUBLE_EQ(s1.speeds[0], 1.0);
  EXPECT_DOUBLE_EQ(s1.energy, 3.0);

  // Processor cap below s_crit: the floor clamps to the cap,
  // E = 2/0.5 + 0.5^2 = 4.25.
  const auto capped = rc::make_instance(
      g, 10.0, rm::Platform({{leaky, 0.5}}), mapping);
  const auto s2 = rc::solve_continuous(capped, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s2.feasible);
  EXPECT_DOUBLE_EQ(s2.speeds[0], 0.5);
  EXPECT_DOUBLE_EQ(s2.energy, 4.25);

  // Processor cap below the required speed: infeasible.
  const auto too_slow = rc::make_instance(
      g, 10.0, rm::Platform({{leaky, 0.05}}), mapping);
  EXPECT_FALSE(
      rc::solve_continuous(too_slow, rm::ContinuousModel{kInf}).feasible);
}

TEST(Platform, HeteroNumericRespectsPerTaskBounds) {
  reclaim::util::Rng rng(21);
  const auto app = rg::make_stencil(3, 3, rng);
  const auto mapping = rs::list_schedule(app, 2).mapping;
  auto exec = rs::build_execution_graph(app, mapping);
  const double deadline = 1.6 * rc::min_deadline(exec, 0.8);
  const rm::Platform platform({{rm::make_power_model(3.0, 0.0), 0.8},
                               {rm::make_power_model(2.5, 0.3), 2.0}});
  const auto instance =
      rc::make_instance(std::move(exec), deadline, platform, mapping);

  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  const auto& g = instance.exec_graph;
  for (rg::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.weight(v) == 0.0) continue;
    const auto& power = instance.power_of(v);
    const double floor = std::min(power.critical_speed(), instance.cap_of(v));
    EXPECT_LE(s.speeds[v], instance.cap_of(v) * (1.0 + 1e-9));
    EXPECT_GE(s.speeds[v], floor * (1.0 - 1e-9));
  }
  EXPECT_TRUE(rs::meets_deadline(
      g, rs::durations_from_speeds(g, s.speeds), instance.deadline));
  EXPECT_NEAR(rc::recompute_energy(instance, s), s.energy, 1e-9 * s.energy);
}

TEST(Platform, HeteroVddLpChargesPerProcessorPower) {
  // One mode forces both tasks to speed 1; the LP's objective coefficients
  // are each processor's own P(1): 1 for the pure law, 1 + 2 for the leaky
  // one -> total energy 1 + 3 = 4.
  const auto instance = two_proc_chain(
      1.0, 1.0, 2.0, {rm::make_power_model(3.0, 0.0), kInf},
      {rm::make_power_model(3.0, 2.0), kInf});
  const auto s =
      rc::solve(instance, rm::VddHoppingModel{rm::ModeSet({1.0})});
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.energy, 4.0, 1e-9);
  EXPECT_NEAR(rc::recompute_energy(instance, s), s.energy, 1e-9);
}

TEST(Platform, HeteroBaselinesUsePerTaskCurves) {
  // UNIFORM at needed = W/D = 0.5: the pure-law task keeps 0.5, the leaky
  // one clamps up to its critical speed 1.
  const auto instance = two_proc_chain(
      1.0, 1.0, 4.0, {rm::make_power_model(3.0, 0.0), kInf},
      {rm::make_power_model(3.0, 2.0), kInf});
  const auto uniform =
      rc::solve_uniform(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(uniform.feasible);
  EXPECT_DOUBLE_EQ(uniform.speeds[0], 0.5);
  EXPECT_DOUBLE_EQ(uniform.speeds[1], 1.0);
  EXPECT_DOUBLE_EQ(uniform.energy, 0.25 + 3.0);

  // NO-DVFS runs each task at its own processor cap and checks the
  // earliest-start makespan: caps 1 and 2 give makespan 1 + 0.5 = 1.5.
  const auto capped = two_proc_chain(
      1.0, 1.0, 1.6, {rm::make_power_model(3.0, 0.0), 1.0},
      {rm::make_power_model(3.0, 0.0), 2.0});
  const auto no_dvfs = rc::solve_no_dvfs(capped, rm::ContinuousModel{kInf});
  ASSERT_TRUE(no_dvfs.feasible);
  EXPECT_DOUBLE_EQ(no_dvfs.speeds[0], 1.0);
  EXPECT_DOUBLE_EQ(no_dvfs.speeds[1], 2.0);
  const auto tight = two_proc_chain(
      1.0, 1.0, 1.4, {rm::make_power_model(3.0, 0.0), 1.0},
      {rm::make_power_model(3.0, 0.0), 2.0});
  EXPECT_FALSE(rc::solve_no_dvfs(tight, rm::ContinuousModel{kInf}).feasible);
}

TEST(Platform, ModeSetsArePlatformWideDespiteCaps) {
  // Processor caps bind the continuous family only (DESIGN.md,
  // "Heterogeneous platforms"): under a mode-based model NO-DVFS must run
  // every task at the top *mode*, even on a continuous-capped processor,
  // matching the mode scans of the other baselines.
  const auto capped = two_proc_chain(
      1.0, 1.0, 2.0, {rm::make_power_model(3.0, 0.0), 1.5},
      {rm::make_power_model(3.0, 0.0), kInf});
  const rm::EnergyModel discrete =
      rm::DiscreteModel{rm::ModeSet({0.5, 1.0, 2.0})};
  const auto s = rc::solve_no_dvfs(capped, discrete);
  ASSERT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.speeds[0], 2.0);
  EXPECT_DOUBLE_EQ(s.speeds[1], 2.0);
}

TEST(Platform, CapBelowSlowestModeDegradesGracefully) {
  // All modes above a processor's continuous cap: CONT-ROUND's restricted
  // relaxation (s_min = slowest mode) has no admissible speed on that
  // processor. It must report infeasible — never throw — so the exact
  // solver still runs (mode sets are platform-wide) and an engine batch
  // is never aborted by one capped instance.
  const auto capped = two_proc_chain(
      1.0, 1.0, 3.0, {rm::make_power_model(3.0, 0.0), 0.8},
      {rm::make_power_model(3.0, 0.0), kInf});
  const rm::ModeSet modes({1.0, 1.5, 2.0});

  const auto rounded = rc::solve_round_up(capped, modes);
  EXPECT_FALSE(rounded.solution.feasible);  // honest heuristic failure

  // The exact search is cap-agnostic by design and still solves it (the
  // warm start is simply skipped).
  const auto exact =
      rc::solve(capped, rm::DiscreteModel{modes});
  ASSERT_TRUE(exact.feasible);
  EXPECT_DOUBLE_EQ(exact.speeds[0], 1.0);
  EXPECT_DOUBLE_EQ(exact.speeds[1], 1.0);

  // A zero-weight task on the capped processor gets no floor (it runs in
  // zero time at no speed), so it must not trip the per-task validation.
  auto with_dummy = rg::make_chain({0.0, 1.0});
  rs::Mapping dummy_mapping(2);
  dummy_mapping.assign(0, 0);
  dummy_mapping.assign(1, 1);
  const auto dummy = rc::make_instance(
      with_dummy, 3.0,
      rm::Platform({{rm::make_power_model(3.0, 0.0), 0.8},
                    {rm::make_power_model(3.0, 2.0), kInf}}),
      dummy_mapping);
  EXPECT_NO_THROW((void)rc::solve_round_up(dummy, modes));

  // Homogeneous capped platform, all-zero weights: nothing needs to run,
  // so even a floor above the folded cap is vacuous — feasible at zero
  // energy, never a throw.
  auto zeros = rg::make_chain({0.0, 0.0});
  rs::Mapping zero_mapping(1);
  zero_mapping.assign(0, 0);
  zero_mapping.assign(0, 1);
  const auto all_zero = rc::make_instance(
      zeros, 3.0, rm::Platform::uniform(1, rm::make_power_model(3.0, 0.0), 0.8),
      zero_mapping);
  const auto zero_rounded = rc::solve_round_up(all_zero, modes);
  ASSERT_TRUE(zero_rounded.solution.feasible);
  EXPECT_DOUBLE_EQ(zero_rounded.solution.energy, 0.0);

  // Batch safety: the capped instance must not abort its neighbors.
  re::ReclaimEngine engine(re::EngineOptions{.threads = 2});
  const std::vector<rc::Instance> batch = {
      capped, rc::make_instance(rg::make_chain({1.0, 1.0}), 3.0)};
  const auto solutions = engine.solve_batch(batch, rm::DiscreteModel{modes});
  ASSERT_EQ(solutions.size(), 2u);
  EXPECT_TRUE(solutions[0].feasible);
  EXPECT_TRUE(solutions[1].feasible);
}

TEST(Platform, RoundUpCertificateUsesWeightedTasksOnly) {
  // An exponent on a processor hosting no work must not inflate the
  // Theorem 5 certificate: both tasks sit on the alpha = 3 processor, so
  // the bound is (1 + gap/s_1)^2, not (1 + gap/s_1)^4 from idle proc 0.
  auto g = rg::make_chain({1.0, 1.0});
  rs::Mapping mapping(2);
  mapping.assign(1, 0);
  mapping.assign(1, 1);
  const auto instance = rc::make_instance(
      g, 6.0,
      rm::Platform({{rm::make_power_model(5.0, 0.0), kInf},
                    {rm::make_power_model(3.0, 0.0), kInf}}),
      mapping);
  const rm::ModeSet modes({0.5, 1.0, 2.0});
  rc::RoundUpOptions options;
  const auto result = rc::solve_round_up(instance, modes, options);
  const double expected =
      std::pow(1.0 + modes.max_gap() / modes.min_speed(), 2.0) *
      std::pow(1.0 + options.continuous_rel_gap, 2.0);
  EXPECT_DOUBLE_EQ(result.certified_factor, expected);
}

TEST(Platform, PerProcessorIdleCurvesAndEnergySplit) {
  // A (2s) alone on P0; B (1s) on P1 inside a window of 4: P0 has a tail
  // gap of 2, P1 gaps totalling 3. P0 idles at 3 (no profitable sleep for
  // a gap of 2 given wake 8), P1 sleeps free after its break-even 0.
  rg::Digraph app;  // two independent tasks
  (void)app.add_node(2.0, "A");
  (void)app.add_node(1.0, "B");
  rs::Mapping mapping(2);
  mapping.assign(0, 0);
  mapping.assign(1, 1);
  const rm::Platform platform(
      {{rm::make_power_model(3.0, 0.0, rm::make_sleep_spec(3.0, 1.0, 8.0)),
        kInf},
       {rm::make_power_model(3.0, 0.0, rm::make_sleep_spec(2.0, 0.0, 0.0)),
        kInf}});
  const std::vector<double> durations = {2.0, 1.0};
  const double idle =
      rs::idle_energy(app, mapping, durations, 4.0, platform);
  // P0 tail gap 2: min(3*2, 1*2+8) = 6. P1 tail gap 3: min(2*3, 0+0) = 0.
  EXPECT_DOUBLE_EQ(idle, 6.0);

  // Broadcast semantics: a 1-proc platform charges every processor with
  // its model, bit-identical to the PowerModel overload.
  const auto pm =
      rm::make_power_model(3.0, 0.0, rm::make_sleep_spec(3.0, 1.0, 8.0));
  EXPECT_EQ(rs::idle_energy(app, mapping, durations, 4.0, rm::Platform(pm)),
            rs::idle_energy(app, mapping, durations, 4.0, pm));

  // per_processor_energy buckets busy energy by assignment and sums to
  // the solution's total; leakage_energy charges each task's own P_stat.
  const auto instance = two_proc_chain(
      1.0, 1.0, 2.0, {rm::make_power_model(3.0, 0.0), kInf},
      {rm::make_power_model(3.0, 2.0), kInf});
  const auto s = rc::solve_continuous(instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(s.feasible);
  const auto buckets = rc::per_processor_energy(instance, s);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0], 1.0);        // speed 1, pure: 1 * 1^2
  EXPECT_DOUBLE_EQ(buckets[1], 3.0);        // speed 1, leaky: 2/1 + 1
  EXPECT_NEAR(buckets[0] + buckets[1], s.energy, 1e-12);
  EXPECT_DOUBLE_EQ(rc::leakage_energy(instance, s), 2.0);  // P_stat * 1s busy
}

TEST(Platform, EngineMappedBatchRaceRouteAndStats) {
  // The canonical race-wins fixture of test_sleep: A alone on P0; B, C
  // chained on P1 with A -> C, binding s_crit floor, interior gap on P1.
  rg::Digraph app;
  const auto a = app.add_node(2.0, "A");
  const auto b = app.add_node(0.5, "B");
  const auto c = app.add_node(0.5, "C");
  app.add_edge(a, c);
  rs::Mapping mapping(2);
  mapping.assign(0, a);
  mapping.assign(1, b);
  mapping.assign(1, c);
  const auto exec = rs::build_execution_graph(app, mapping);
  // The spec test_sleep proves races strictly: idle 3, wake 6, s_crit
  // floor binding at P_stat = 2, D = 6.
  const auto pm = rm::PowerModel(rm::StaticPowerLaw(3.0, 2.0))
                      .with_sleep(rm::make_sleep_spec(3.0, 0.0, 6.0));
  const rm::EnergyModel cont = rm::ContinuousModel{kInf};

  re::MappedInstance mapped{
      rc::make_instance(exec, 6.0, rm::Platform::uniform(2, pm), mapping),
      mapping};

  // One thread: two identical entries in one batch would otherwise race
  // on the memo fill (both fresh-solve, first-in wins — harmless but
  // nondeterministic for the counters below).
  re::EngineOptions engine_options;
  engine_options.threads = 1;
  re::ReclaimEngine engine(engine_options);
  const std::vector<re::MappedInstance> batch = {mapped, mapped};
  const auto solutions = engine.solve_batch(batch, cont);
  ASSERT_EQ(solutions.size(), 2u);

  // Matches the direct race-to-idle solve bit-identically, and the second
  // (identical) entry is a memo hit.
  const auto direct = rc::solve_race_to_idle(
      mapped.instance, rm::ContinuousModel{kInf}, mapping);
  expect_identical(solutions[0], direct.solution);
  expect_identical(solutions[1], direct.solution);
  EXPECT_TRUE(direct.raced);
  EXPECT_EQ(solutions[0].method, "race-to-idle");

  const auto stats = engine.stats();
  EXPECT_EQ(stats.fresh_solves, 1u);
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.raced_solves, 1u);
  EXPECT_EQ(stats.crawl_solves, 0u);

  // Without a sleep spec the mapped route degenerates to the plain one
  // (and its memo entries are shared with unmapped batches).
  re::ReclaimEngine plain_engine(engine_options);
  const auto plain_pm = rm::PowerModel(rm::StaticPowerLaw(3.0, 2.0));
  const auto no_sleep = rc::make_instance(
      exec, 6.0, rm::Platform::uniform(2, plain_pm), mapping);
  const auto direct_solution = plain_engine.solve_one(no_sleep, cont);
  const auto mapped_solution =
      plain_engine.solve_one(re::MappedInstance{no_sleep, mapping}, cont);
  expect_identical(mapped_solution, direct_solution);
  EXPECT_EQ(plain_engine.stats().memo_hits, 1u);
  EXPECT_EQ(plain_engine.stats().raced_solves +
                plain_engine.stats().crawl_solves,
            0u);

  // A crawl-kept instance: a pure-dynamic chain alone on one processor
  // fills its window at the crawl, so racing only adds busy energy. The
  // engine counts it as a crawl from its method, and — that method naming
  // a closed form — in the kernel counters too.
  rs::Mapping one(1);
  const auto chain_app = rg::make_chain({1.0, 2.0});
  for (rg::NodeId v = 0; v < chain_app.num_nodes(); ++v) one.assign(0, v);
  const auto chain_pm = rm::PowerModel(rm::StaticPowerLaw(3.0, 0.0))
                            .with_sleep(rm::make_sleep_spec(3.0, 0.0, 6.0));
  const re::MappedInstance crawl_kept{
      rc::make_instance(rs::build_execution_graph(chain_app, one), 6.0,
                        rm::Platform::uniform(1, chain_pm), one),
      one};
  re::ReclaimEngine crawl_engine(engine_options);
  const auto kept = crawl_engine.solve_batch(
      std::vector<re::MappedInstance>{crawl_kept}, cont);
  const auto kept_direct = rc::solve_race_to_idle(
      crawl_kept.instance, rm::ContinuousModel{kInf}, one);
  EXPECT_FALSE(kept_direct.raced);
  expect_identical(kept[0], kept_direct.solution);
  EXPECT_EQ(kept[0].method, "closed-form-chain");
  const auto kept_stats = crawl_engine.stats();
  EXPECT_EQ(kept_stats.crawl_solves, 1u);
  EXPECT_EQ(kept_stats.raced_solves, 0u);
  EXPECT_EQ(kept_stats.kernel_solves, 1u);
  EXPECT_EQ(kept_stats.kernel_chain, 1u);
}

TEST(Platform, RaceToIdleRacesPastCapPinnedTasks) {
  // big.LITTLE regression: A (w = 2) alone on the uncapped big core; B, C
  // (w = 0.5 each) on the little core whose cap 1.0 equals s_crit (P_stat
  // = 2, alpha = 3), so both its tasks are floor-pinned at the cap. The
  // old search stopped at min over tasks of cap/speed = 1 — any pinned
  // task froze the whole race. Pinned tasks must clamp while A races:
  // with idle 3 / sleep 0 / wake 6 the platform energy at factor k is
  //   E(k) = 2 (2/k + k^2) + 3 + 6 + 3 (2/k - 0.5) + 6
  //        = 10/k + 2 k^2 + 13.5
  // (A's busy cost, B+C pinned busy 3, P0 tail sleeps for 6, P1's
  // interior gap 2/k - 0.5 idles below break-even 2, P1 tail sleeps),
  // minimized at k* = 2.5^(1/3) ~ 1.357 with E ~ 24.55 < 25.5 = E(1).
  rg::Digraph app;
  const auto a = app.add_node(2.0, "A");
  const auto b = app.add_node(0.5, "B");
  const auto c = app.add_node(0.5, "C");
  app.add_edge(a, c);
  rs::Mapping mapping(2);
  mapping.assign(0, a);
  mapping.assign(1, b);
  mapping.assign(1, c);
  const auto exec = rs::build_execution_graph(app, mapping);
  const auto pm = rm::make_power_model(3.0, 2.0,  // s_crit = 1
                                       rm::make_sleep_spec(3.0, 0.0, 6.0));
  const rm::Platform platform({{pm, kInf}, {pm, 1.0}});
  const auto instance = rc::make_instance(exec, 6.0, platform, mapping);

  const auto r =
      rc::solve_race_to_idle(instance, rm::ContinuousModel{kInf}, mapping);
  ASSERT_TRUE(r.solution.feasible);
  EXPECT_NEAR(r.crawl.total(), 25.5, 1e-6);
  EXPECT_TRUE(r.raced);  // the little core's pinned tasks no longer freeze it
  const double k_star = std::cbrt(2.5);
  EXPECT_NEAR(r.speedup, k_star, 5e-3);
  EXPECT_NEAR(r.chosen.total(),
              10.0 / k_star + 2.0 * k_star * k_star + 13.5, 1e-4);
  EXPECT_LT(r.chosen.total(), r.crawl.total());

  // A raced, the pinned tasks clamped at their cap.
  EXPECT_NEAR(r.solution.speeds[a], k_star, 5e-3);
  EXPECT_DOUBLE_EQ(r.solution.speeds[b], 1.0);
  EXPECT_DOUBLE_EQ(r.solution.speeds[c], 1.0);

  // The raced schedule stays feasible with exact busy bookkeeping.
  rs::validate_constant_speeds(instance.exec_graph, r.solution.speeds,
                               rm::ContinuousModel{kInf}, instance.deadline);
  EXPECT_NEAR(rc::recompute_energy(instance, r.solution), r.solution.energy,
              1e-9 * r.solution.energy);
}

TEST(Platform, RaceWorthBoundIgnoresPinnedTasks) {
  // A heavy task pinned at its cap contributes nothing to the busy
  // increase at any speed-up, so it must not feed the k_worth bound:
  // summing it would truncate the search below the true optimum. H
  // (w = 200, cap 1.0) dominates the platform's dynamic energy; the true
  // optimum for racing A is k* = 16^(1/3) ~ 2.52, while the old
  // all-tasks bound sqrt((busy+idle)/dynamic) ~ 2.12 cut the search
  // short. With idle 30 / sleep 0 / wake 100 (break-even 10/3) and
  // D = 202 the platform energy at factor k is
  //   E(k) = 2 k^2 + 64/k + 848
  // (A's busy 2(2/k + k^2); B+C busy 3; H busy 600; P0/P1 tails sleep
  // for 100 each; P1's interior gap 2/k - 0.5 idles at 30; P2's tail 2
  // idles for 60).
  rg::Digraph app;
  const auto a = app.add_node(2.0, "A");
  const auto b = app.add_node(0.5, "B");
  const auto c = app.add_node(0.5, "C");
  const auto h = app.add_node(200.0, "H");
  app.add_edge(a, c);
  rs::Mapping mapping(3);
  mapping.assign(0, a);
  mapping.assign(1, b);
  mapping.assign(1, c);
  mapping.assign(2, h);
  const auto exec = rs::build_execution_graph(app, mapping);
  const auto pm = rm::make_power_model(3.0, 2.0,  // s_crit = 1
                                       rm::make_sleep_spec(30.0, 0.0, 100.0));
  const rm::Platform platform({{pm, kInf}, {pm, 1.0}, {pm, 1.0}});
  const auto instance = rc::make_instance(exec, 202.0, platform, mapping);

  const auto r =
      rc::solve_race_to_idle(instance, rm::ContinuousModel{kInf}, mapping);
  ASSERT_TRUE(r.solution.feasible);
  EXPECT_NEAR(r.crawl.total(), 914.0, 1e-4);
  EXPECT_TRUE(r.raced);
  const double k_star = std::cbrt(16.0);
  EXPECT_NEAR(r.speedup, k_star, 1e-2);
  EXPECT_NEAR(r.chosen.total(), 2.0 * k_star * k_star + 64.0 / k_star + 848.0,
              1e-2);
  EXPECT_DOUBLE_EQ(r.solution.speeds[h], 1.0);  // still pinned at its cap
}

TEST(Platform, EngineMemoNeverAliasesDistinctPlatforms) {
  auto g = rg::make_chain({1.0, 1.0});
  rs::Mapping mapping(2);
  mapping.assign(0, 0);
  mapping.assign(1, 1);
  const rm::EnergyModel cont = rm::ContinuousModel{kInf};
  const rc::SolveOptions opts;

  const auto pure = rm::make_power_model(3.0, 0.0);
  const auto leaky = rm::make_power_model(3.0, 2.0);
  const auto i_a =
      rc::make_instance(g, 4.0, rm::Platform({{pure, kInf}, {leaky, kInf}}),
                        mapping);
  const auto i_b =
      rc::make_instance(g, 4.0, rm::Platform({{leaky, kInf}, {pure, kInf}}),
                        mapping);
  const auto i_capped =
      rc::make_instance(g, 4.0, rm::Platform({{pure, 2.0}, {leaky, kInf}}),
                        mapping);

  // Distinct platforms (and the same platform with swapped processors)
  // produce distinct keys; identical inputs produce identical keys.
  EXPECT_NE(re::instance_key(i_a, cont, opts),
            re::instance_key(i_b, cont, opts));
  EXPECT_NE(re::instance_key(i_a, cont, opts),
            re::instance_key(i_capped, cont, opts));
  EXPECT_EQ(re::instance_key(i_a, cont, opts),
            re::instance_key(i_a, cont, opts));

  // The mapped key additionally separates execution orders.
  rs::Mapping swapped(2);
  swapped.assign(0, 1);
  swapped.assign(1, 0);
  EXPECT_NE(re::mapped_instance_key(i_a, mapping, cont, opts),
            re::mapped_instance_key(i_a, swapped, cont, opts));
  EXPECT_NE(re::instance_key(i_a, cont, opts),
            re::mapped_instance_key(i_a, mapping, cont, opts));

  // End to end: both hetero instances are fresh solves with different
  // optima (the leaky processor's floor binds a different task), then
  // repeat batches hit the memo with bit-identical answers.
  re::EngineOptions engine_options;
  engine_options.threads = 1;
  re::ReclaimEngine engine(engine_options);
  const std::vector<rc::Instance> batch = {i_a, i_b};
  const auto first = engine.solve_batch(batch, cont);
  EXPECT_EQ(engine.stats().fresh_solves, 2u);
  EXPECT_EQ(engine.stats().memo_hits, 0u);
  ASSERT_TRUE(first[0].feasible);
  ASSERT_TRUE(first[1].feasible);
  EXPECT_NE(first[0].speeds, first[1].speeds);

  const auto second = engine.solve_batch(batch, cont);
  EXPECT_EQ(engine.stats().memo_hits, 2u);
  expect_identical(second[0], first[0]);
  expect_identical(second[1], first[1]);
}
