// Batched fast-path tests: long runs vs per-instance core::solve
// bit-identity (fuzzed), the kKernelMinRun memo-bypass boundary, the
// per-instance route of solve_one, submit and short batch runs, the
// sleep-DP exclusion, repeated solves that must not see each other's
// scratch, and the EngineStats counters that split kernel-answered solves
// from the rest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/continuous/batch_kernels.hpp"
#include "core/continuous/dispatch.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "engine/reclaim_engine.hpp"
#include "graph/generators.hpp"
#include "model/energy_model.hpp"
#include "model/platform.hpp"
#include "model/power_model.hpp"
#include "sched/mapping.hpp"
#include "util/rng.hpp"

namespace rc = reclaim::core;
namespace re = reclaim::engine;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;
namespace ru = reclaim::util;

namespace {

/// Every Solution field, bit for bit.
void expect_identical(const rc::Solution& a, const rc::Solution& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.energy, b.energy);  // bit-identical, not approximately equal
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.speeds.size(), b.speeds.size());
  for (std::size_t i = 0; i < a.speeds.size(); ++i) {
    EXPECT_EQ(a.speeds[i], b.speeds[i]);
  }
  ASSERT_EQ(a.profiles.size(), b.profiles.size());
  for (std::size_t i = 0; i < a.profiles.size(); ++i) {
    const auto& sa = a.profiles[i].segments;
    const auto& sb = b.profiles[i].segments;
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t k = 0; k < sa.size(); ++k) {
      EXPECT_EQ(sa[k].speed, sb[k].speed);
      EXPECT_EQ(sa[k].duration, sb[k].duration);
    }
  }
}

/// A homogeneous sweep: one topology family, shared power model, weights
/// and deadlines varying per instance — exactly the shape the kernels
/// batch. `tight_fraction` of the deadlines are squeezed toward D_min so
/// cap-saturated and infeasible branches get exercised too.
std::vector<rc::Instance> homogeneous_sweep(std::uint64_t seed,
                                            std::size_t count,
                                            const std::string& family,
                                            rm::PowerModel power,
                                            double tight_fraction = 0.25) {
  ru::Rng rng(seed);
  std::vector<rc::Instance> out;
  out.reserve(count);
  // One topology per sweep: same node count and edge set, varying weights.
  // Tree/SP families share one randomly generated base topology (the very
  // thing the batch planner keys on); everything else is rebuilt from the
  // weights directly.
  const std::size_t n = 6;
  std::optional<rg::Digraph> base;
  if (family == "outtree") {
    base = rg::make_random_out_tree(8, rng);
  } else if (family == "intree") {
    base = rg::make_random_in_tree(8, rng);
  } else if (family == "sp") {
    base = rg::make_random_series_parallel(8, rng);
  }
  std::vector<double> weights(family == "single" ? 1
                              : base              ? base->num_nodes()
                                                  : n);
  for (std::size_t i = 0; i < count; ++i) {
    for (double& w : weights) w = rng.uniform(0.5, 4.0);
    if (i % 7 == 3 && weights.size() > 2) weights[1] = 0.0;  // zero-weight task
    rg::Digraph g;
    if (base) {
      g = *base;
      for (rg::NodeId v = 0; v < g.num_nodes(); ++v) g.set_weight(v, weights[v]);
    } else {
      g = family == "chain"  ? rg::make_chain(weights)
          : family == "fork" ? rg::make_fork(weights)
          : family == "join" ? rg::make_join(weights)
                             : rg::make_chain({weights[0]});
    }
    const double d_min = rc::min_deadline(g, 2.0);
    const double slack =
        (i % 4 == 0 && tight_fraction > 0.0) ? rng.uniform(0.4, 1.05)
                                             : rng.uniform(1.1, 3.0);
    out.push_back(rc::make_instance(std::move(g), slack * d_min, power));
  }
  return out;
}

/// A big.LITTLE-style sweep: one chain topology whose task slots alternate
/// between two processor specs sharing one exponent (the hetero kernel's
/// compatibility rule) but differing in P_stat and cap.
std::vector<rc::Instance> hetero_chain_sweep(std::uint64_t seed,
                                             std::size_t count,
                                             double big_alpha = 3.0,
                                             double little_alpha = 3.0) {
  ru::Rng rng(seed);
  const rm::Platform platform({{rm::make_power_model(big_alpha, 0.2), 2.0},
                               {rm::make_power_model(little_alpha, 0.6), 1.2}});
  const std::size_t n = 6;
  std::vector<std::size_t> assignment(n);
  for (std::size_t v = 0; v < n; ++v) assignment[v] = v % 2;
  std::vector<double> weights(n);
  std::vector<rc::Instance> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    for (double& w : weights) w = rng.uniform(0.5, 4.0);
    if (i % 7 == 3) weights[1] = 0.0;
    rg::Digraph g = rg::make_chain(weights);
    // Feasible-by-construction deadlines against the slower cap; every
    // 4th instance squeezed so the cap/floor hand-back branch fires too.
    const double d_min = rc::min_deadline(g, 1.2);
    const double slack =
        i % 4 == 0 ? rng.uniform(0.5, 1.05) : rng.uniform(1.1, 3.0);
    out.push_back(rc::make_instance(std::move(g), slack * d_min, platform,
                                    assignment));
  }
  return out;
}

void expect_batches_identical(std::span<const rc::Instance> instances,
                              const rm::EnergyModel& model,
                              const rc::SolveOptions& options) {
  // threads == 1 takes the fused scan-and-solve pass, threads > 1 the
  // unit drain over run pieces — both must match core::solve instance by
  // instance.
  re::EngineOptions kernel_opts;
  kernel_opts.threads = 1;
  kernel_opts.memoize = false;  // force every instance through a solver
  re::EngineOptions pooled_opts = kernel_opts;
  pooled_opts.threads = 4;

  re::ReclaimEngine with_kernels(kernel_opts);
  re::ReclaimEngine pooled(pooled_opts);
  const auto fast = with_kernels.solve_batch(instances, model, options);
  const auto pooled_fast = pooled.solve_batch(instances, model, options);
  std::vector<rc::Solution> slow;
  for (const auto& instance : instances) {
    slow.push_back(rc::solve(instance, model, options));
  }
  ASSERT_EQ(fast.size(), slow.size());
  ASSERT_EQ(pooled_fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    expect_identical(fast[i], slow[i]);
    expect_identical(pooled_fast[i], slow[i]);
  }
  // The sweep is one long homogeneous run: the engine must have actually
  // taken the fast path.
  EXPECT_GT(with_kernels.stats().kernel_solves, 0u);
}

}  // namespace

// ------------------------------------------------------ bit-identity fuzz

TEST(BatchKernels, ChainSweepBitIdentical) {
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  expect_batches_identical(homogeneous_sweep(17, 200, "chain", rm::PowerLaw(3.0)), cont, {});
}

TEST(BatchKernels, SingleTaskSweepBitIdentical) {
  const rm::EnergyModel cont = rm::ContinuousModel{2.5};
  expect_batches_identical(homogeneous_sweep(19, 150, "single", rm::PowerLaw(3.0)), cont,
                           {});
}

TEST(BatchKernels, ForkSweepBitIdentical) {
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  expect_batches_identical(homogeneous_sweep(23, 200, "fork", rm::PowerLaw(3.0)), cont, {});
}

TEST(BatchKernels, LeakyChainSweepBitIdentical) {
  // Static power engages the s_crit floor in the closed forms.
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  expect_batches_identical(
      homogeneous_sweep(29, 200, "chain", rm::StaticPowerLaw(3.0, 0.5)), cont,
      {});
}

TEST(BatchKernels, LeakyForkSweepBitIdenticalUnderReduction) {
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  expect_batches_identical(
      homogeneous_sweep(31, 200, "fork", rm::StaticPowerLaw(3.0, 0.8)), cont,
      {});
}

TEST(BatchKernels, OutTreeSweepBitIdentical) {
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  expect_batches_identical(
      homogeneous_sweep(101, 200, "outtree", rm::PowerLaw(3.0)), cont, {});
}

TEST(BatchKernels, InTreeSweepBitIdentical) {
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  expect_batches_identical(
      homogeneous_sweep(103, 200, "intree", rm::PowerLaw(3.0)), cont, {});
}

TEST(BatchKernels, SpSweepBitIdentical) {
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  expect_batches_identical(homogeneous_sweep(107, 200, "sp", rm::PowerLaw(3.0)),
                           cont, {});
}

TEST(BatchKernels, LeakyTreeAndSpSweepsBitIdenticalUnderReduction) {
  // Static power engages the s_crit floor: under-floor solutions are
  // handed back to the barrier and must still match core::solve bit for
  // bit.
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  expect_batches_identical(
      homogeneous_sweep(109, 150, "outtree", rm::StaticPowerLaw(3.0, 0.5)),
      cont, {});
  expect_batches_identical(
      homogeneous_sweep(113, 150, "sp", rm::StaticPowerLaw(3.0, 0.8)), cont,
      {});
}

TEST(BatchKernels, ExactLeakyTreeAndSpWithoutStaticPowerBitIdentical) {
  // P_stat = 0 makes the reduction exact a priori, so the tree/SP kernels
  // stay eligible under LeakageMode::kExact.
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  rc::SolveOptions options;
  options.leakage = rc::LeakageMode::kExact;
  expect_batches_identical(
      homogeneous_sweep(127, 120, "intree", rm::PowerLaw(3.0)), cont, options);
  expect_batches_identical(homogeneous_sweep(131, 120, "sp", rm::PowerLaw(3.0)),
                           cont, options);
}

TEST(BatchKernels, SminFloorTreeSweepBitIdentical) {
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  rc::SolveOptions options;
  options.continuous_s_min = 0.9;
  expect_batches_identical(
      homogeneous_sweep(137, 150, "outtree", rm::PowerLaw(3.0)), cont, options);
}

TEST(BatchKernels, HeteroChainSweepBitIdentical) {
  // Shared exponent, per-slot P_stat and caps: long runs of the hetero
  // chain kernel must match core::solve bit for bit, including the
  // infeasible and hand-back branches on the squeezed instances.
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  expect_batches_identical(hetero_chain_sweep(139, 200), cont, {});
}

TEST(BatchKernels, ExactLeakyChainSweepBitIdentical) {
  // Homogeneous leaky chains are exact a priori under the reduction, so
  // the kernels stay valid under LeakageMode::kExact.
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  rc::SolveOptions options;
  options.leakage = rc::LeakageMode::kExact;
  expect_batches_identical(
      homogeneous_sweep(37, 150, "chain", rm::StaticPowerLaw(3.0, 0.5)), cont,
      options);
}

TEST(BatchKernels, SminFloorSweepBitIdentical) {
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  rc::SolveOptions options;
  options.continuous_s_min = 0.9;
  expect_batches_identical(homogeneous_sweep(41, 150, "chain", rm::PowerLaw(3.0)), cont,
                           options);
}

TEST(BatchKernels, MixedFamiliesAndStragglersBitIdentical) {
  // Alternate runs of chains and forks with a general DAG wedged between
  // them: the planner must segment runs correctly and hand the stencil to
  // core::solve.
  ru::Rng rng(43);
  std::vector<rc::Instance> instances;
  const auto chains = homogeneous_sweep(47, 20, "chain", rm::PowerLaw(3.0));
  const auto forks = homogeneous_sweep(53, 20, "fork", rm::PowerLaw(3.0));
  instances.insert(instances.end(), chains.begin(), chains.end());
  {
    auto g = rg::make_stencil(3, 3, rng);
    const double d = 1.5 * rc::min_deadline(g, 2.0);
    instances.push_back(rc::make_instance(std::move(g), d));
  }
  instances.insert(instances.end(), forks.begin(), forks.end());
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  expect_batches_identical(instances, cont, {});
}

// ----------------------------------------------------- planner predicates

TEST(BatchKernels, PlannerRejectsIneligibleInstances) {
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  const rc::SolveOptions options;
  ru::Rng rng(59);

  // General DAG: no closed form.
  auto stencil = rg::make_stencil(3, 3, rng);
  const auto general =
      rc::make_instance(std::move(stencil), 50.0, 3.0);
  EXPECT_FALSE(rc::plan_kernel(general, cont, options).has_value());

  // Exact-leaky fork with static power: the exact route runs a barrier
  // pass on top of the reduction — not batchable.
  auto fork = rg::make_fork({1.0, 2.0, 3.0});
  const auto leaky_fork = rc::make_instance(std::move(fork), 50.0,
                                            rm::StaticPowerLaw(3.0, 0.5));
  rc::SolveOptions exact;
  exact.leakage = rc::LeakageMode::kExact;
  EXPECT_FALSE(rc::plan_kernel(leaky_fork, cont, exact).has_value());
  EXPECT_TRUE(rc::plan_kernel(leaky_fork, cont, options).has_value());

  // Mode-based models never take the continuous closed forms.
  const rm::EnergyModel discrete =
      rm::DiscreteModel{rm::ModeSet{{0.5, 1.0, 2.0}}};
  auto chain = rg::make_chain({1.0, 2.0});
  const auto chain_inst = rc::make_instance(std::move(chain), 10.0, 3.0);
  EXPECT_FALSE(rc::plan_kernel(chain_inst, discrete, options).has_value());

  // Joins are in-trees structurally, but plan as the fork family rooted
  // at their sink, as solve_continuous answers them.
  const auto join =
      rc::make_instance(rg::make_join({1.0, 2.0, 3.0}), 50.0, 3.0);
  const auto join_plan = rc::plan_kernel(join, cont, options);
  ASSERT_TRUE(join_plan.has_value());
  EXPECT_EQ(join_plan->family, rc::KernelFamily::kFork);
  EXPECT_TRUE(join_plan->join);
  EXPECT_EQ(join_plan->root, join.exec_graph.sinks().front());

  // Exact-leaky trees/SP with static power run best-of(reduction, numeric)
  // — not batchable; without static power the reduction is exact a priori
  // and the kernel stays eligible.
  ru::Rng tree_rng(61);
  const auto tree = rc::make_instance(rg::make_random_out_tree(7, tree_rng),
                                      50.0, rm::StaticPowerLaw(3.0, 0.5));
  EXPECT_FALSE(rc::plan_kernel(tree, cont, exact).has_value());
  EXPECT_TRUE(rc::plan_kernel(tree, cont, options).has_value());
  const auto sp =
      rc::make_instance(rg::make_random_series_parallel(7, tree_rng), 50.0,
                        rm::StaticPowerLaw(3.0, 0.5));
  EXPECT_FALSE(rc::plan_kernel(sp, cont, exact).has_value());
  EXPECT_TRUE(rc::plan_kernel(sp, cont, options).has_value());
}

TEST(BatchKernels, HeteroPlanRequiresReductionAndHandsBackMixedExponents) {
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  const rc::SolveOptions options;

  // Shared exponent across slots: plannable, and marked hetero.
  const auto shared = hetero_chain_sweep(149, 1).front();
  const auto plan = rc::plan_kernel(shared, cont, options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->hetero);
  EXPECT_EQ(plan->family, rc::KernelFamily::kChain);

  // Mixed exponents plan too, but the kernel checks the weighted tasks'
  // exponents per instance and hands these back to the barrier.
  const auto mixed = hetero_chain_sweep(151, 1, 3.0, 2.5).front();
  const auto mixed_plan = rc::plan_kernel(mixed, cont, options);
  ASSERT_TRUE(mixed_plan.has_value());
  const rc::Instance* const ptr = &mixed;
  rc::Solution out;
  rc::solve_kernel_run(*mixed_plan, &ptr, 1, &out);
  EXPECT_TRUE(out.method.empty());
  EXPECT_EQ(rc::solve(mixed, cont, options).method, "numeric-barrier");

  // LeakageMode::kExact stays off the kernels (the hetero exact route is
  // the numeric one).
  rc::SolveOptions exact;
  exact.leakage = rc::LeakageMode::kExact;
  EXPECT_FALSE(rc::plan_kernel(shared, cont, exact).has_value());
}

TEST(BatchKernels, HeteroChainsWithMixedSlotExponentsKeepTheirAnswers) {
  // Three slots, the third with another exponent. Pinned answers: while
  // only zero-weight tasks sit on the odd slot the weighted tasks share
  // one exponent and keep the equal-speed closed form (W/D = 0.9 clears
  // both s_crit floors and caps); a weighted task there sends the chain
  // to the barrier.
  const rm::Platform platform({{rm::make_power_model(3.0, 0.2), 2.0},
                               {rm::make_power_model(3.0, 0.6), 1.2},
                               {rm::make_power_model(2.5, 0.1), 1.5}});
  const std::vector<std::size_t> assignment{0, 1, 2, 0};
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};

  const auto shared = rc::make_instance(rg::make_chain({1.0, 2.0, 0.0, 1.5}),
                                        5.0, platform, assignment);
  const auto mixed = rc::make_instance(rg::make_chain({1.0, 2.0, 1.0, 1.5}),
                                       5.0, platform, assignment);
  re::ReclaimEngine engine({.threads = 1});
  for (const auto& s :
       {rc::solve(shared, cont), engine.solve_one(shared, cont)}) {
    EXPECT_TRUE(s.feasible);
    EXPECT_EQ(s.method, "closed-form-chain");
    EXPECT_EQ(s.energy, 0x1.622b3c4d5e6f8p+2);
    const std::vector<double> speeds{0x1.ccccccccccccdp-1,
                                     0x1.ccccccccccccdp-1, 0.0,
                                     0x1.ccccccccccccdp-1};
    EXPECT_EQ(s.speeds, speeds);
  }
  for (const auto& s :
       {rc::solve(mixed, cont), engine.solve_one(mixed, cont)}) {
    EXPECT_TRUE(s.feasible);
    EXPECT_EQ(s.method, "numeric-barrier");
    EXPECT_NEAR(s.energy, 8.2240972852855379, 1e-10);
    const double speeds[] = {1.0756782605557837, 1.0756782605532309,
                             1.2246003087465891, 1.0756782605568231};
    ASSERT_EQ(s.speeds.size(), 4u);
    for (std::size_t v = 0; v < 4; ++v) {
      EXPECT_NEAR(s.speeds[v], speeds[v], 1e-8);
    }
  }
}

TEST(BatchKernels, RunCompatibilityIsPerSlotOnHeteroPlatforms) {
  // Same topology and per-slot specs: compatible.
  const auto a = hetero_chain_sweep(157, 1).front();
  const auto b = hetero_chain_sweep(163, 1).front();
  EXPECT_TRUE(rc::kernel_run_compatible(a, b));

  // Same topology, one slot on a different processor spec: incompatible.
  const rm::Platform flipped({{rm::make_power_model(3.0, 0.2), 2.0},
                              {rm::make_power_model(3.0, 0.9), 1.2}});
  auto g = a.exec_graph;
  std::vector<std::size_t> assignment(g.num_nodes());
  for (std::size_t v = 0; v < assignment.size(); ++v) assignment[v] = v % 2;
  const auto c =
      rc::make_instance(std::move(g), a.deadline, flipped, assignment);
  EXPECT_FALSE(rc::kernel_run_compatible(a, c));
}

TEST(BatchKernels, RunCompatibilityRequiresSharedTopologyAndModel) {
  const auto a = rc::make_instance(rg::make_chain({1.0, 2.0, 3.0}), 10.0, 3.0);
  const auto b = rc::make_instance(rg::make_chain({4.0, 5.0, 6.0}), 20.0, 3.0);
  EXPECT_TRUE(rc::kernel_run_compatible(a, b));

  const auto other_shape =
      rc::make_instance(rg::make_fork({1.0, 2.0, 3.0}), 10.0, 3.0);
  EXPECT_FALSE(rc::kernel_run_compatible(a, other_shape));

  const auto other_power = rc::make_instance(rg::make_chain({1.0, 2.0, 3.0}),
                                             10.0, rm::StaticPowerLaw(3.0, 0.5));
  EXPECT_FALSE(rc::kernel_run_compatible(a, other_power));
}

TEST(BatchKernels, ShortRunsAreKernelSolvedBehindTheMemo) {
  // A run of kKernelMinRun compatible instances is a sweep of distinct
  // instances: planned once, kernel-solved, and kept out of the memo. One
  // fewer goes through the memo instance by instance, and each miss is a
  // core::solve — a kernel run of one. Pinned on both kernel_batch
  // drivers: the fused 1-thread pass and the pooled unit drain.
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    re::EngineOptions opts;
    opts.threads = threads;
    for (const std::size_t count : {re::kKernelMinRun - 1, re::kKernelMinRun}) {
      SCOPED_TRACE("run of " + std::to_string(count));
      // No squeezed deadlines: a hand-back would hide the boundary.
      const auto sweep =
          homogeneous_sweep(61, count, "chain", rm::PowerLaw(3.0), 0.0);
      re::ReclaimEngine engine(opts);
      (void)engine.solve_batch(std::span<const rc::Instance>(sweep), cont, {});
      const auto stats = engine.stats();
      EXPECT_EQ(stats.fresh_solves, count);
      EXPECT_EQ(stats.kernel_solves, count);
      EXPECT_EQ(stats.memo_entries,
                count >= re::kKernelMinRun ? 0u : count);
    }
  }
}

TEST(BatchKernels, StatsCountKernelSolves) {
  const auto sweep = homogeneous_sweep(67, 40, "chain", rm::PowerLaw(3.0));
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  re::EngineOptions opts;
  opts.threads = 1;
  opts.memoize = false;
  re::ReclaimEngine engine(opts);
  (void)engine.solve_batch(std::span<const rc::Instance>(sweep), cont, {});
  const auto stats = engine.stats();
  EXPECT_EQ(stats.instances, sweep.size());
  EXPECT_EQ(stats.fresh_solves, sweep.size());
  EXPECT_EQ(stats.kernel_solves, sweep.size());
  engine.clear_caches();
  EXPECT_EQ(engine.stats().kernel_solves, 0u);
}

TEST(BatchKernels, StatsSplitKernelSolvesPerFamily) {
  // One run per family, no squeezed deadlines (hand-backs would not
  // count): the per-family split must tile kernel_solves.
  std::vector<rc::Instance> instances;
  for (const char* family : {"single", "chain", "fork", "outtree", "sp"}) {
    auto sweep = homogeneous_sweep(211, 10, family, rm::PowerLaw(3.0), 0.0);
    for (auto& inst : sweep) instances.push_back(std::move(inst));
  }
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  re::EngineOptions opts;
  opts.threads = 1;
  opts.memoize = false;
  re::ReclaimEngine engine(opts);
  (void)engine.solve_batch(std::span<const rc::Instance>(instances), cont, {});
  const auto stats = engine.stats();
  EXPECT_EQ(stats.kernel_single, 10u);
  EXPECT_EQ(stats.kernel_chain, 10u);
  EXPECT_EQ(stats.kernel_fork, 10u);
  EXPECT_EQ(stats.kernel_tree, 10u);
  EXPECT_EQ(stats.kernel_sp, 10u);
  EXPECT_EQ(stats.kernel_single + stats.kernel_chain + stats.kernel_fork +
                stats.kernel_tree + stats.kernel_sp,
            stats.kernel_solves);
  engine.clear_caches();
  EXPECT_EQ(engine.stats().kernel_tree, 0u);
}

TEST(BatchKernels, JoinsAreCountedAsForkKernelSolves) {
  // A join is the fork rooted at its sink: long runs take the kernels
  // and stay out of the memo, and a run of one counts as a fork kernel
  // solve, on both kernel_batch drivers and through solve_one.
  const auto joins = homogeneous_sweep(229, 8, "join", rm::PowerLaw(3.0), 0.0);
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    re::ReclaimEngine engine({.threads = threads});
    const auto out =
        engine.solve_batch(std::span<const rc::Instance>(joins), cont, {});
    for (std::size_t i = 0; i < joins.size(); ++i) {
      expect_identical(out[i], rc::solve(joins[i], cont, {}));
      EXPECT_EQ(out[i].method, "closed-form-join");
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.kernel_solves, joins.size());
    EXPECT_EQ(stats.kernel_fork, joins.size());
    EXPECT_EQ(stats.memo_entries, 0u);
  }
  re::ReclaimEngine one({.threads = 1});
  for (const auto& join : joins) (void)one.solve_one(join, cont);
  EXPECT_EQ(one.stats().kernel_solves, joins.size());
  EXPECT_EQ(one.stats().kernel_fork, joins.size());
}

TEST(BatchKernels, ExactRunsCheckEveryInstanceAPriori) {
  // Under kExact whether the reduction is exact a priori depends on which
  // tasks carry weight, a free axis of a run. Here the run's head puts
  // no weight on the leaky processor, so it plans; the others do, and
  // core::solve gives them the exact waterfill. The long run must match
  // core::solve instance by instance.
  const rm::Platform platform({{rm::make_power_model(3.0, 0.0), 2.0},
                               {rm::make_power_model(3.0, 0.3), 1.2}});
  const std::vector<std::size_t> assignment{0, 1, 0, 1, 0, 1};
  std::vector<rc::Instance> run;
  ru::Rng rng(233);
  for (std::size_t i = 0; i < 8; ++i) {
    std::vector<double> weights(assignment.size());
    for (std::size_t v = 0; v < weights.size(); ++v) {
      weights[v] = i == 0 && assignment[v] == 1 ? 0.0 : rng.uniform(0.5, 4.0);
    }
    rg::Digraph g = rg::make_chain(weights);
    const double d = rng.uniform(1.5, 3.0) * rc::min_deadline(g, 1.2);
    run.push_back(rc::make_instance(std::move(g), d, platform, assignment));
  }
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  rc::SolveOptions exact;
  exact.leakage = rc::LeakageMode::kExact;
  ASSERT_TRUE(rc::plan_kernel(run[0], cont, exact).has_value());
  std::size_t waterfilled = 0;
  for (const auto& instance : run) {
    if (rc::solve(instance, cont, exact).method != "closed-form-chain") {
      ++waterfilled;
    }
  }
  EXPECT_GT(waterfilled, 0u);
  expect_batches_identical(run, cont, exact);
}

TEST(BatchKernels, KernelPlannerReusesShapeCache) {
  // The planner consults the dispatch cache for the cached decomposition
  // and composition plan: the second batch of a topology must hit it
  // (shape_hits counts kernel-path planning too) and still kernel-solve
  // every instance.
  const auto sweep =
      homogeneous_sweep(227, 40, "outtree", rm::PowerLaw(3.0), 0.0);
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  re::EngineOptions opts;
  opts.threads = 1;
  opts.memoize = false;
  re::ReclaimEngine engine(opts);
  (void)engine.solve_batch(std::span<const rc::Instance>(sweep), cont, {});
  (void)engine.solve_batch(std::span<const rc::Instance>(sweep), cont, {});
  const auto stats = engine.stats();
  EXPECT_EQ(stats.kernel_tree, 2 * sweep.size());
  EXPECT_GE(stats.shape_hits, 1u);
  EXPECT_EQ(stats.shape_entries, 1u);
}

// ------------------------------------------------------ run-of-one route

namespace {

/// One family's inputs for the run-of-one route: the instances (tight
/// deadlines included, so infeasible and cap-bound answers are covered)
/// and the options they are solved under (model: ContinuousModel{2.0}).
struct RouteCase {
  std::string name;
  std::vector<rc::Instance> instances;
  rc::SolveOptions options = {};
};

std::vector<RouteCase> route_cases() {
  std::vector<RouteCase> cases;
  std::uint64_t seed = 301;
  for (const char* family :
       {"single", "chain", "fork", "outtree", "intree", "sp"}) {
    cases.push_back(
        {family, homogeneous_sweep(seed++, 12, family, rm::PowerLaw(3.0))});
  }
  cases.push_back({"hetero-chain", hetero_chain_sweep(seed++, 12)});
  for (const auto leakage :
       {rc::LeakageMode::kReduction, rc::LeakageMode::kExact}) {
    RouteCase leaky{"leaky-chain",
                    homogeneous_sweep(seed++, 12, "chain",
                                      rm::StaticPowerLaw(3.0, 0.5))};
    leaky.options.leakage = leakage;
    cases.push_back(std::move(leaky));
  }
  RouteCase floor{"s_min-floor",
                  homogeneous_sweep(seed++, 12, "outtree", rm::PowerLaw(3.0))};
  floor.options.continuous_s_min = 0.9;
  cases.push_back(std::move(floor));
  return cases;
}

/// Alternates the instances with ones of another topology (single tasks,
/// or chains between single tasks), so every compatible run in the batch
/// is a run of one.
std::vector<rc::Instance> interleave_runs_of_one(
    const std::vector<rc::Instance>& instances) {
  const bool singles = instances.front().exec_graph.num_nodes() == 1;
  const auto filler = homogeneous_sweep(409, instances.size(),
                                        singles ? "chain" : "single",
                                        rm::PowerLaw(3.0));
  std::vector<rc::Instance> out;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    out.push_back(instances[i]);
    out.push_back(filler[i]);
  }
  return out;
}

rc::Solution submit_and_wait(re::ReclaimEngine& engine,
                             const rc::Instance& instance,
                             const rm::EnergyModel& model,
                             const rc::SolveOptions& options) {
  std::promise<rc::Solution> promise;
  auto future = promise.get_future();
  engine.submit({instance, reclaim::sched::Mapping{1}}, model, options,
                [&promise](rc::Solution solution, std::exception_ptr error) {
                  if (error) {
                    promise.set_exception(error);
                  } else {
                    promise.set_value(std::move(solution));
                  }
                });
  return future.get();
}

}  // namespace

TEST(BatchKernels, RunOfOneRouteMatchesCoreSolve) {
  // solve_one, submit and a batch of runs of one must answer every
  // closed-form family exactly as core::solve does, and the kernels must
  // have taken those solves.
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  std::size_t infeasible = 0;
  for (const auto& c : route_cases()) {
    SCOPED_TRACE(c.name);
    std::vector<rc::Solution> reference;
    for (const auto& instance : c.instances) {
      reference.push_back(rc::solve(instance, cont, c.options));
      if (!reference.back().feasible) ++infeasible;
    }

    re::ReclaimEngine one({.threads = 1});
    re::ReclaimEngine pooled({.threads = 4});
    for (std::size_t i = 0; i < c.instances.size(); ++i) {
      SCOPED_TRACE("instance " + std::to_string(i));
      expect_identical(one.solve_one(c.instances[i], cont, c.options),
                       reference[i]);
      expect_identical(
          submit_and_wait(pooled, c.instances[i], cont, c.options),
          reference[i]);
    }
    EXPECT_GT(one.stats().kernel_solves, 0u);
    EXPECT_GT(pooled.stats().kernel_solves, 0u);

    const auto batch = interleave_runs_of_one(c.instances);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("batch threads " + std::to_string(threads));
      re::ReclaimEngine engine({.threads = threads});
      const auto out = engine.solve_batch(batch, cont, c.options);
      ASSERT_EQ(out.size(), batch.size());
      for (std::size_t i = 0; i < c.instances.size(); ++i) {
        SCOPED_TRACE("instance " + std::to_string(i));
        expect_identical(out[2 * i], reference[i]);
      }
      const auto stats = engine.stats();
      EXPECT_GT(stats.kernel_solves, c.instances.size());
      // Runs of one stay behind the memo: every distinct answer is kept.
      EXPECT_EQ(stats.memo_entries, batch.size());
    }
  }
  // The squeezed deadlines put infeasible instances among the inputs.
  EXPECT_GT(infeasible, 0u);
}

TEST(BatchKernels, RunOfOneRepeatIsAMemoHit) {
  const auto sweep = homogeneous_sweep(419, 3, "chain", rm::PowerLaw(3.0), 0.0);
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  re::ReclaimEngine engine({.threads = 1});
  const auto first = engine.solve_one(sweep[0], cont);
  const auto again = engine.solve_one(sweep[0], cont);
  expect_identical(again, first);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.fresh_solves, 1u);
  EXPECT_EQ(stats.kernel_solves, 1u);
  EXPECT_EQ(stats.kernel_chain, 1u);
  EXPECT_EQ(stats.memo_hits, 1u);
}

TEST(BatchKernels, RunOfOneHandBackMatchesCoreSolve) {
  // Leaky forks whose closed form violates the s_crit floor are planned
  // but handed back by the kernel; core::solve answers them with the
  // barrier, and the engine counts no kernel solve for them.
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  const auto sweep =
      homogeneous_sweep(421, 60, "fork", rm::StaticPowerLaw(3.0, 0.8));
  std::size_t handed_back = 0;
  for (const auto& instance : sweep) {
    const auto plan = rc::plan_kernel(instance, cont, {});
    ASSERT_TRUE(plan.has_value());
    const rc::Instance* const ptr = &instance;
    rc::Solution kernel;
    rc::solve_kernel_run(*plan, &ptr, 1, &kernel);
    if (!kernel.method.empty()) continue;
    ++handed_back;
    re::ReclaimEngine engine({.threads = 1});
    expect_identical(engine.solve_one(instance, cont),
                     rc::solve(instance, cont, {}));
    EXPECT_EQ(engine.stats().kernel_solves, 0u);
    EXPECT_EQ(engine.stats().fresh_solves, 1u);
  }
  EXPECT_GT(handed_back, 0u);
}

// ------------------------------------------------------ sleep-DP exclusion

TEST(BatchKernels, SleepDpBatchDispatchesTheOracle) {
  // SleepMode::kDp on a sleep-enabled platform is core::solve's sleep-DP
  // oracle, not a closed form: a batch run long enough for the kernels,
  // and each instance alone, must answer exactly as core::solve does.
  const rm::EnergyModel model = rm::ContinuousModel{
      std::numeric_limits<double>::infinity()};
  rc::SolveOptions options;
  options.sleep_mode = rc::SleepMode::kDp;
  const auto power =
      rm::make_power_model(3.0, 2.0, rm::make_sleep_spec(1.5, 1.5, 0.0));
  std::vector<rc::Instance> chains;
  for (std::size_t k = 0; k < re::kKernelMinRun; ++k) {
    chains.push_back(rc::make_instance(
        rg::make_chain({1.0, 1.0 + 0.1 * static_cast<double>(k)}), 6.0,
        power));
  }
  EXPECT_FALSE(rc::plan_kernel(chains[0], model, options).has_value());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    re::ReclaimEngine engine({.threads = threads});
    const auto out = engine.solve_batch(chains, model, options);
    ASSERT_EQ(out.size(), chains.size());
    for (std::size_t k = 0; k < chains.size(); ++k) {
      SCOPED_TRACE("instance " + std::to_string(k));
      const auto reference = rc::solve(chains[k], model, options);
      EXPECT_EQ(reference.method, "sleep-dp");
      expect_identical(out[k], reference);
      expect_identical(engine.solve_one(chains[k], model, options), reference);
    }
    EXPECT_EQ(engine.stats().kernel_solves, 0u);
  }

  // A sleep spec on a processor no task uses still sends core::solve to
  // the oracle, which throws off its single-processor domain. Run
  // compatibility compares only the processors tasks use, so such
  // instances must not ride into a kernel run behind a no-sleep head.
  const auto plain = rm::make_power_model(3.0, 2.0);
  std::vector<rc::Instance> hidden_sleep;
  for (std::size_t k = 0; k < re::kKernelMinRun; ++k) {
    std::vector<rm::ProcessorSpec> specs(2, rm::ProcessorSpec{plain});
    if (k > 0) specs[1].power = power;
    hidden_sleep.push_back(rc::make_instance(
        rg::make_chain({1.0, 1.0 + 0.1 * static_cast<double>(k), 2.0}), 6.0,
        rm::Platform(specs), std::vector<std::size_t>(3, 0)));
  }
  ASSERT_TRUE(rc::plan_kernel(hidden_sleep[0], model, options).has_value());
  ASSERT_TRUE(rc::kernel_run_compatible(hidden_sleep[0], hidden_sleep[1]));
  EXPECT_FALSE(rc::kernel_eligible(hidden_sleep[1], model, options));
  std::string reference_error;
  try {
    (void)rc::solve(hidden_sleep[1], model, options);
  } catch (const std::exception& e) {
    reference_error = e.what();
  }
  ASSERT_FALSE(reference_error.empty());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    re::ReclaimEngine engine({.threads = threads});
    try {
      (void)engine.solve_batch(hidden_sleep, model, options);
      ADD_FAILURE() << "the batch answered what core::solve rejects";
    } catch (const std::exception& e) {
      EXPECT_EQ(e.what(), reference_error);
    }
  }
}

// ------------------------------------------------- non-kernel models

TEST(BatchKernels, VddBatchPlansNothing) {
  // The Vdd LP reads no shape, and no model but Continuous has kernels:
  // a Vdd batch of kernel-length chain runs must analyze no topology,
  // exactly like the per-instance route.
  const rm::EnergyModel model = rm::VddHoppingModel{rm::ModeSet({1.0, 2.0})};
  std::vector<rc::Instance> runs;
  for (std::size_t length = 2; length < 7; ++length) {
    for (std::size_t k = 0; k < re::kKernelMinRun; ++k) {
      const double w = 1.0 + 0.1 * static_cast<double>(k);
      const double deadline = 1.5 * static_cast<double>(length);
      runs.push_back(rc::make_instance(
          rg::make_chain(std::vector<double>(length, w)), deadline, 3.0));
    }
  }
  re::ReclaimEngine single({.threads = 1});
  std::vector<rc::Solution> reference;
  for (const auto& instance : runs) {
    reference.push_back(single.solve_one(instance, model));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    re::ReclaimEngine engine({.threads = threads});
    const auto out = engine.solve_batch(runs, model);
    ASSERT_EQ(out.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      expect_identical(out[i], reference[i]);
    }
    EXPECT_EQ(engine.stats().shape_entries, single.stats().shape_entries);
    EXPECT_EQ(engine.stats().kernel_solves, 0u);
  }
}

// ------------------------------------------------- repeated-solve identity

namespace {

/// A sweep over one rows x cols stencil topology (numeric-barrier route)
/// with a deadline grid.
std::vector<rc::Instance> barrier_sweep(std::uint64_t seed, std::size_t count,
                                        double p_static, std::size_t rows,
                                        std::size_t cols) {
  ru::Rng rng(seed);
  rg::Digraph g = rg::make_stencil(rows, cols, rng);
  std::vector<rc::Instance> out;
  out.reserve(count);
  const double d_min = rc::min_deadline(g, 2.0);
  for (std::size_t i = 0; i < count; ++i) {
    const double slack = 1.2 + 0.08 * static_cast<double>(i % 25);
    rg::Digraph copy = g;
    out.push_back(rc::make_instance(
        std::move(copy), slack * d_min,
        p_static > 0.0 ? rm::PowerModel(rm::StaticPowerLaw(3.0, p_static))
                       : rm::PowerModel(rm::PowerLaw(3.0))));
  }
  return out;
}

}  // namespace

TEST(BatchKernels, RepeatedSolvesAreBitIdentical) {
  // Nothing a solve leaves behind may reach the next one. Chains take the
  // kernel route; exact-leaky stencils take the barrier route, in two
  // sizes interleaved so that a smaller solve follows a larger one. Every
  // round must reproduce round 0 and core::solve.
  const auto chains =
      homogeneous_sweep(83, 10, "chain", rm::PowerLaw(3.0), 0.0);
  const auto small = barrier_sweep(89, 5, 0.3, 3, 3);
  const auto large = barrier_sweep(97, 5, 0.3, 4, 5);
  std::vector<rc::Instance> barriers;
  for (std::size_t i = 0; i < small.size(); ++i) {
    barriers.push_back(large[i]);
    barriers.push_back(small[i]);
  }
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  rc::SolveOptions exact;
  exact.leakage = rc::LeakageMode::kExact;

  std::vector<rc::Solution> reference;
  for (const auto& instance : chains) {
    reference.push_back(rc::solve(instance, cont));
  }
  for (const auto& instance : barriers) {
    reference.push_back(rc::solve(instance, cont, exact));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    re::EngineOptions opts;
    opts.threads = threads;
    opts.memoize = false;
    re::ReclaimEngine engine(opts);
    std::vector<rc::Solution> first;
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      auto out =
          engine.solve_batch(std::span<const rc::Instance>(chains), cont, {});
      const auto tail = engine.solve_batch(
          std::span<const rc::Instance>(barriers), cont, exact);
      out.insert(out.end(), tail.begin(), tail.end());
      ASSERT_EQ(out.size(), reference.size());
      if (round == 0) first = out;
      for (std::size_t i = 0; i < out.size(); ++i) {
        expect_identical(out[i], first[i]);
        expect_identical(out[i], reference[i]);
      }
    }
    EXPECT_GT(engine.stats().kernel_solves, 0u);
  }
}

// ------------------------------------------------------ route agreement

namespace {

/// A graph of `shape` (positive weights) for the route-agreement grid.
rg::Digraph agreement_graph(const std::string& shape, ru::Rng& rng) {
  std::vector<double> w(6);
  for (double& x : w) x = rng.uniform(0.5, 4.0);
  if (shape == "empty") return rg::Digraph{};
  if (shape == "single") return rg::make_chain({w[0]});
  if (shape == "chain") return rg::make_chain(w);
  if (shape == "fork") return rg::make_fork(w);
  if (shape == "join") return rg::make_join(w);
  if (shape == "outtree") return rg::make_random_out_tree(7, rng);
  if (shape == "intree") return rg::make_random_in_tree(7, rng);
  if (shape == "sp") return rg::make_random_series_parallel(7, rng);
  return rg::make_stencil(3, 3, rng);
}

}  // namespace

TEST(BatchKernels, PlannerAgreesWithCoreSolve) {
  // Wherever core::solve answers with a closed form under the reduction,
  // or under kExact where the reduction is exact a priori, plan_kernel
  // plans the instance and its run of one is bit-identical; and wherever
  // the kernel answers, it answers as core::solve does. On this grid
  // (positive weights, one exponent) the reduction is exact a priori when
  // no task has static power, on single tasks and on homogeneous chains.
  const std::vector<std::string> closed_forms = {
      "closed-form-single", "closed-form-chain", "closed-form-fork",
      "closed-form-join",   "tree",              "series-parallel"};
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  std::size_t checked = 0;
  for (const std::string shape : {"empty", "single", "chain", "fork", "join",
                                  "outtree", "intree", "sp", "general"}) {
    for (const bool two_procs : {false, true}) {
      for (const double p_static : {0.0, 0.3}) {
        for (const auto leakage :
             {rc::LeakageMode::kReduction, rc::LeakageMode::kExact}) {
          for (const double s_min : {0.0, 0.8}) {
            SCOPED_TRACE(shape + (two_procs ? " two-proc" : " homogeneous") +
                         " P_stat " + std::to_string(p_static) +
                         (leakage == rc::LeakageMode::kExact ? " exact"
                                                             : " reduction") +
                         " s_min " + std::to_string(s_min));
            rc::SolveOptions options;
            options.leakage = leakage;
            options.continuous_s_min = s_min;
            const bool exact_a_priori =
                leakage == rc::LeakageMode::kReduction || p_static == 0.0 ||
                shape == "single" || (shape == "chain" && !two_procs);
            ru::Rng rng(239);
            for (const double slack : {3.0, 1.5, 1.02}) {
              SCOPED_TRACE("slack " + std::to_string(slack));
              rg::Digraph g = agreement_graph(shape, rng);
              const double d =
                  g.num_nodes() == 0 ? 1.0 : slack * rc::min_deadline(g, 1.2);
              const rm::PowerModel power = rm::make_power_model(3.0, p_static);
              std::vector<std::size_t> assignment(g.num_nodes());
              for (std::size_t v = 0; v < assignment.size(); ++v) {
                assignment[v] = v % 2;
              }
              const rc::Instance instance =
                  two_procs ? rc::make_instance(
                                  std::move(g), d,
                                  rm::Platform({{power, 2.0}, {power, 1.2}}),
                                  assignment)
                            : rc::make_instance(std::move(g), d, power);

              const rc::Solution reference = rc::solve(instance, cont, options);
              const auto plan = rc::plan_kernel(instance, cont, options);
              rc::Solution kernel;
              if (plan) {
                const rc::Instance* const ptr = &instance;
                rc::solve_kernel_run(*plan, &ptr, 1, &kernel);
              }
              if (!kernel.method.empty()) expect_identical(kernel, reference);
              const bool closed_form =
                  std::find(closed_forms.begin(), closed_forms.end(),
                            reference.method) != closed_forms.end();
              if (closed_form && exact_a_priori) {
                EXPECT_TRUE(plan.has_value()) << reference.method;
                EXPECT_FALSE(kernel.method.empty()) << reference.method;
                ++checked;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 100u);
}
