// ReclaimEngine tests: batch/single-shot parity, determinism across thread
// counts, memo and dispatch-cache behavior, and exception propagation from
// a poisoned instance mid-batch.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "engine/instance_key.hpp"
#include "engine/reclaim_engine.hpp"
#include "graph/generators.hpp"
#include "model/energy_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rc = reclaim::core;
namespace re = reclaim::engine;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;

namespace {

/// Mixed chain/fork/tree/SP/general instances (the DAG itself is used as
/// the execution graph; any DAG is a valid execution graph).
std::vector<rc::Instance> mixed_instances(std::uint64_t seed,
                                          std::size_t per_family = 4) {
  reclaim::util::Rng rng(seed);
  std::vector<rg::Digraph> graphs;
  for (std::size_t k = 0; k < per_family; ++k) {
    graphs.push_back(rg::make_chain(6 + k, rng));
    graphs.push_back(rg::make_fork(4 + k, rng));
    graphs.push_back(rg::make_random_out_tree(8 + k, rng));
    graphs.push_back(rg::make_fork_join_chain(2, 2 + k, rng));
    graphs.push_back(rg::make_stencil(3, 3 + k, rng));
  }
  std::vector<rc::Instance> instances;
  for (auto& g : graphs) {
    const double d_min = rc::min_deadline(g, 1.0);
    instances.push_back(rc::make_instance(std::move(g), 1.5 * d_min));
  }
  return instances;
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

TEST(InstanceKey, DistinguishesWeightsDeadlinesAndModels) {
  reclaim::util::Rng rng(5);
  auto g1 = rg::make_chain({1.0, 2.0, 3.0});
  auto g2 = rg::make_chain({1.0, 2.0, 4.0});
  const auto i1 = rc::make_instance(g1, 10.0);
  const auto i2 = rc::make_instance(g2, 10.0);
  const auto i3 = rc::make_instance(g1, 11.0);
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  const rm::EnergyModel disc = rm::DiscreteModel{rm::ModeSet({1.0, 2.0})};
  const rc::SolveOptions opts;

  EXPECT_EQ(re::topology_key(i1.exec_graph), re::topology_key(i2.exec_graph));
  EXPECT_EQ(re::instance_key(i1, cont, opts), re::instance_key(i1, cont, opts));
  EXPECT_NE(re::instance_key(i1, cont, opts), re::instance_key(i2, cont, opts));
  EXPECT_NE(re::instance_key(i1, cont, opts), re::instance_key(i3, cont, opts));
  EXPECT_NE(re::instance_key(i1, cont, opts), re::instance_key(i1, disc, opts));
}

TEST(InstanceKey, DistinguishesEveryPowerModelField) {
  // Regression for the aliasing risk class: the key must encode the full
  // power model (kind, alpha, p_static), not just alpha — otherwise two
  // instances differing only in p_static would share a memo entry.
  const auto g = rg::make_chain({1.0, 2.0, 3.0});
  const auto pure = rc::make_instance(g, 10.0, 3.0);
  const auto zero = rc::make_instance(g, 10.0, rm::StaticPowerLaw(3.0, 0.0));
  const auto half = rc::make_instance(g, 10.0, rm::StaticPowerLaw(3.0, 0.5));
  const auto one = rc::make_instance(g, 10.0, rm::StaticPowerLaw(3.0, 1.0));
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  const rc::SolveOptions opts;

  EXPECT_NE(re::instance_key(pure, cont, opts), re::instance_key(half, cont, opts));
  EXPECT_NE(re::instance_key(half, cont, opts), re::instance_key(one, cont, opts));
  // Same math, different kind: still distinct (conservative, never aliases).
  EXPECT_NE(re::instance_key(pure, cont, opts), re::instance_key(zero, cont, opts));
}

TEST(InstanceKey, DistinguishesSleepSpecFields) {
  const auto g = rg::make_chain({1.0, 2.0});
  const auto base = rm::make_power_model(3.0, 0.5);
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  const rc::SolveOptions opts;
  const auto key = [&](const rm::PowerModel& p) {
    return re::instance_key(rc::make_instance(g, 10.0, p), cont, opts);
  };
  EXPECT_NE(key(base), key(base.with_sleep(rm::make_sleep_spec(1.0, 0.0, 0.0))));
  EXPECT_NE(key(base.with_sleep(rm::make_sleep_spec(1.0, 0.0, 0.0))),
            key(base.with_sleep(rm::make_sleep_spec(0.0, 1.0, 0.0))));
  EXPECT_NE(key(base.with_sleep(rm::make_sleep_spec(0.0, 1.0, 0.0))),
            key(base.with_sleep(rm::make_sleep_spec(0.0, 0.0, 1.0))));
}

TEST(InstanceKey, CanonicalizesNegativeZeroAndRejectsNaN) {
  // -0.0 and 0.0 are mathematically identical instances; the raw bit
  // pattern differs in the sign bit and used to produce two memo keys.
  auto plus = rg::make_chain({1.0, 2.0});
  auto minus = rg::make_chain({1.0, 2.0});
  plus.set_weight(0, 0.0);
  minus.set_weight(0, -0.0);
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  const rc::SolveOptions opts;
  EXPECT_EQ(re::instance_key(rc::make_instance(plus, 10.0), cont, opts),
            re::instance_key(rc::make_instance(minus, 10.0), cont, opts));

  // p_static = -0.0 (e.g. parsed from "-0" input) aliases to 0.0 too.
  const auto p_plus = rc::make_instance(plus, 10.0, rm::StaticPowerLaw(3.0, 0.0));
  const auto p_minus =
      rc::make_instance(plus, 10.0, rm::StaticPowerLaw(3.0, -0.0));
  EXPECT_EQ(re::instance_key(p_plus, cont, opts),
            re::instance_key(p_minus, cont, opts));

  // NaN can only poison the memo (never equal to itself): clear error.
  // Digraph and make_instance already reject NaN weights/deadlines, so
  // smuggle one in through the unvalidated aggregate.
  const rc::Instance bad{rg::make_chain({1.0, 2.0}),
                         std::numeric_limits<double>::quiet_NaN(),
                         rm::PowerModel()};
  EXPECT_THROW((void)re::instance_key(bad, cont, opts),
               reclaim::InvalidArgument);
}

TEST(ReclaimEngine, MixedFeasibilityBatchTabulates) {
  // One infeasible row (deadline below W / s_max) must not abort the
  // batch, and the feasible rows must still tabulate busy_time (the CLI's
  // leakage/idle columns) — the infeasible row simply renders as NA.
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  std::vector<rc::Instance> instances;
  instances.push_back(rc::make_instance(rg::make_chain({2.0, 2.0}), 8.0,
                                        rm::StaticPowerLaw(3.0, 0.5)));
  instances.push_back(rc::make_instance(rg::make_chain({4.0, 4.0}), 1.0,
                                        rm::StaticPowerLaw(3.0, 0.5)));
  instances.push_back(rc::make_instance(rg::make_chain({1.0, 1.0, 1.0}), 6.0,
                                        rm::StaticPowerLaw(3.0, 0.5)));

  re::EngineOptions engine_options;
  engine_options.threads = 2;
  re::ReclaimEngine engine(engine_options);
  const auto solutions = engine.solve_batch(instances, cont);

  ASSERT_EQ(solutions.size(), 3u);
  EXPECT_TRUE(solutions[0].feasible);
  EXPECT_FALSE(solutions[1].feasible);
  EXPECT_TRUE(solutions[2].feasible);
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    if (solutions[i].feasible) {
      EXPECT_GT(rc::busy_time(instances[i], solutions[i]), 0.0);
    } else {
      // The guard the CLI relies on: busy_time refuses infeasible rows
      // loudly instead of reading garbage speeds.
      EXPECT_THROW((void)rc::busy_time(instances[i], solutions[i]),
                   reclaim::InvalidArgument);
    }
  }
}

TEST(ReclaimEngine, MemoDistinguishesPowerModels) {
  // End-to-end: identical graph/deadline/energy-model, different p_static
  // must be fresh solves with different optima, never memo hits.
  const auto g = rg::make_chain({2.0, 2.0});  // W = 4
  re::EngineOptions engine_options;
  engine_options.threads = 1;
  re::ReclaimEngine engine(engine_options);
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};

  const auto pure =
      engine.solve_one(rc::make_instance(g, 8.0, 3.0), cont);
  const auto leaky = engine.solve_one(
      rc::make_instance(g, 8.0, rm::StaticPowerLaw(3.0, 2.0)), cont);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.fresh_solves, 2u);
  EXPECT_EQ(stats.memo_hits, 0u);
  ASSERT_TRUE(pure.feasible);
  ASSERT_TRUE(leaky.feasible);
  // Pure: speed 0.5, E = 4 * 0.25 = 1. Leaky: s_crit = 1, E = 4 * 3 = 12.
  EXPECT_DOUBLE_EQ(pure.energy, 1.0);
  EXPECT_DOUBLE_EQ(leaky.energy, 12.0);
}

TEST(ReclaimEngine, MatchesSingleShotSolve) {
  // The mixed families plus a 16-task chain, too long for branch-and-bound:
  // under Discrete and Incremental every route must take the chain DP.
  auto instances = mixed_instances(11);
  reclaim::util::Rng rng(7);
  auto chain = rg::make_chain(16, rng);
  const double deadline = 1.4 * rc::min_deadline(chain, 2.0);
  instances.push_back(rc::make_instance(std::move(chain), deadline));
  const rc::Instance& long_chain = instances.back();

  const std::vector<rm::EnergyModel> models = {
      rm::ContinuousModel{2.0},
      rm::DiscreteModel{rm::ModeSet({0.5, 1.0, 1.5, 2.0})},
      rm::DiscreteModel{rm::ModeSet({0.6, 1.2, 2.0})},
      rm::IncrementalModel{0.6, 2.0, 0.7}};
  for (const std::size_t threads : {1, 4}) {
    re::EngineOptions engine_options;
    engine_options.threads = threads;
    re::ReclaimEngine batch_engine(engine_options);
    re::ReclaimEngine single_engine(engine_options);
    for (const auto& model : models) {
      const auto batch = batch_engine.solve_batch(instances, model);
      ASSERT_EQ(batch.size(), instances.size());
      for (std::size_t i = 0; i < instances.size(); ++i) {
        const rc::Solution reference = rc::solve(instances[i], model);
        expect_identical(batch[i], reference);
        expect_identical(single_engine.solve_one(instances[i], model),
                         reference);
      }
      if (!std::holds_alternative<rm::ContinuousModel>(model)) {
        EXPECT_EQ(rc::solve(long_chain, model).method, "chain-dp");
      }
    }
  }
}

TEST(ReclaimEngine, DeterministicAcrossThreadCounts) {
  const auto mixed = mixed_instances(23);
  const rm::EnergyModel model = rm::ContinuousModel{2.0};

  // Two sweeps between the mixed instances: 57 chains, and 45 leaky forks
  // whose s_crit floor hands some instances back. The pooled driver cuts
  // sweeps into pieces of n / (8 * workers) — 7 at 2 threads, 3 at 4 — so
  // some pieces are shorter than kKernelMinRun. Every piece keeps its
  // run's head, so routing (kernel, hand-back, memo) matches the fused
  // 1-thread pass.
  reclaim::util::Rng rng(29);
  std::vector<rc::Instance> instances(mixed.begin(), mixed.begin() + 10);
  for (std::size_t k = 0; k < 57; ++k) {
    auto g = rg::make_chain(8, rng);
    const double d_min = rc::min_deadline(g, 1.0);
    instances.push_back(rc::make_instance(std::move(g), 1.5 * d_min));
  }
  instances.insert(instances.end(), mixed.begin() + 10, mixed.end());
  for (std::size_t k = 0; k < 45; ++k) {
    auto g = rg::make_fork(5, rng);
    const double d_min = rc::min_deadline(g, 1.0);
    instances.push_back(rc::make_instance(
        std::move(g), (1.1 + 0.1 * static_cast<double>(k % 20)) * d_min,
        rm::StaticPowerLaw(3.0, 0.5)));
  }

  std::vector<std::vector<rc::Solution>> runs;
  std::vector<re::EngineStats> stats;
  for (std::size_t threads : {1, 2, 4}) {
    re::EngineOptions engine_options;
    engine_options.threads = threads;
    re::ReclaimEngine engine(engine_options);
    runs.push_back(engine.solve_batch(instances, model));
    stats.push_back(engine.stats());
  }
  // The forks' hand-backs went through the memo; the sweeps did not.
  EXPECT_GT(stats[0].memo_entries, mixed.size());
  EXPECT_LT(stats[0].memo_entries, mixed.size() + 45);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      expect_identical(runs[r][i], runs[0][i]);
    }
    EXPECT_EQ(stats[r].fresh_solves, stats[0].fresh_solves);
    EXPECT_EQ(stats[r].kernel_solves, stats[0].kernel_solves);
    EXPECT_EQ(stats[r].kernel_single, stats[0].kernel_single);
    EXPECT_EQ(stats[r].kernel_chain, stats[0].kernel_chain);
    EXPECT_EQ(stats[r].kernel_fork, stats[0].kernel_fork);
    EXPECT_EQ(stats[r].kernel_tree, stats[0].kernel_tree);
    EXPECT_EQ(stats[r].kernel_sp, stats[0].kernel_sp);
    EXPECT_EQ(stats[r].memo_entries, stats[0].memo_entries);
  }
}

TEST(ReclaimEngine, MemoHitIsBitIdenticalToFreshSolve) {
  const auto instances = mixed_instances(37);
  const rm::EnergyModel model = rm::ContinuousModel{2.0};
  re::EngineOptions engine_options;
  engine_options.threads = 2;
  re::ReclaimEngine engine(engine_options);

  const auto fresh = engine.solve_batch(instances, model);
  const auto first = engine.stats();
  EXPECT_EQ(first.fresh_solves, instances.size());
  EXPECT_EQ(first.memo_hits, 0u);

  const auto memoized = engine.solve_batch(instances, model);
  const auto second = engine.stats();
  EXPECT_EQ(second.fresh_solves, instances.size());  // nothing re-solved
  EXPECT_EQ(second.memo_hits, instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    expect_identical(memoized[i], fresh[i]);
  }
}

TEST(ReclaimEngine, DispatchCacheReusesShapes) {
  // Same topology, different weights/deadlines: the memo cannot help, the
  // shape cache must.
  reclaim::util::Rng rng(41);
  std::vector<rc::Instance> instances;
  for (int k = 0; k < 8; ++k) {
    auto g = rg::make_stencil(3, 3, rng);  // same 3x3 wavefront topology
    const double d_min = rc::min_deadline(g, 1.0);
    instances.push_back(rc::make_instance(std::move(g), (1.2 + 0.1 * k) * d_min));
  }
  re::EngineOptions engine_options;
  engine_options.threads = 1;
  re::ReclaimEngine engine(engine_options);
  const auto batch = engine.solve_batch(instances, rm::ContinuousModel{2.0});
  for (const auto& s : batch) EXPECT_TRUE(s.feasible);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.fresh_solves, instances.size());
  // Classified once — by the kernel planner probing the run's head (the
  // planner then rejects the family), so every scalar solve is a hit.
  EXPECT_EQ(stats.shape_hits, instances.size());
}

TEST(ReclaimEngine, ChainDpRoutesLargeDiscreteChains) {
  reclaim::util::Rng rng(43);
  auto g = rg::make_chain(40, rng);
  const double d_min = rc::min_deadline(g, 2.0);
  const auto instance = rc::make_instance(std::move(g), 1.4 * d_min);
  re::ReclaimEngine engine(re::EngineOptions{.threads = 1});
  const auto s =
      engine.solve_one(instance, rm::DiscreteModel{rm::ModeSet({0.5, 1.0, 2.0})});
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.method, "chain-dp");
}

TEST(ReclaimEngine, MemoEvictsLeastRecentlyUsed) {
  const auto instances = mixed_instances(47, 1);  // 5 distinct instances
  re::EngineOptions engine_options;
  engine_options.threads = 1;
  engine_options.memo_capacity = 2;
  re::ReclaimEngine engine(engine_options);

  // Two sequential scans of a 5-instance working set through a 2-entry
  // LRU — the worst case for LRU: by the time the scan comes around
  // again, every entry has already been pushed out, so the second batch
  // is all fresh solves and every insertion past the first two evicts.
  const auto first = engine.solve_batch(instances, rm::ContinuousModel{2.0});
  const auto second = engine.solve_batch(instances, rm::ContinuousModel{2.0});
  auto stats = engine.stats();
  EXPECT_EQ(stats.memo_hits, 0u);
  EXPECT_EQ(stats.fresh_solves, 2 * instances.size());
  EXPECT_EQ(stats.memo_entries, 2u);
  EXPECT_EQ(stats.memo_evictions, 2 * instances.size() - 2);
  EXPECT_GT(stats.memo_bytes, 0u);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    expect_identical(second[i], first[i]);  // eviction changes cost, not answers
  }

  // The two most recently inserted entries ARE resident: re-asking for
  // the last instance is a memo hit, not a fresh solve.
  expect_identical(engine.solve_one(instances.back(), rm::ContinuousModel{2.0}),
                   first.back());
  stats = engine.stats();
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.fresh_solves, 2 * instances.size());
}

TEST(ReclaimEngine, MemoByteCapBoundsResidentBytes) {
  const auto instances = mixed_instances(59);
  const rm::EnergyModel model = rm::ContinuousModel{2.0};

  // Measure the working set's unbounded footprint first, then cap a
  // second engine at half of it.
  re::EngineOptions unbounded;
  unbounded.threads = 1;
  unbounded.memo_capacity = 0;
  re::ReclaimEngine reference(unbounded);
  const auto fresh = reference.solve_batch(instances, model);
  const std::size_t full_bytes = reference.stats().memo_bytes;
  ASSERT_GT(full_bytes, 0u);

  re::EngineOptions capped;
  capped.threads = 1;
  capped.memo_capacity = 0;  // the byte cap alone must bound the cache
  capped.memo_bytes = full_bytes / 2;
  re::ReclaimEngine engine(capped);
  const auto solutions = engine.solve_batch(instances, model);
  const auto stats = engine.stats();
  EXPECT_GT(stats.memo_evictions, 0u);
  EXPECT_LT(stats.memo_bytes, full_bytes);
  // Within the cap — except for the sole-entry escape hatch (the cache
  // never evicts its only entry, even when that entry alone exceeds it).
  EXPECT_TRUE(stats.memo_bytes <= capped.memo_bytes || stats.memo_entries == 1);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    expect_identical(solutions[i], fresh[i]);
  }
}

TEST(ReclaimEngine, SubmitMatchesSolveOne) {
  const auto instances = mixed_instances(71, 1);
  re::EngineOptions engine_options;
  engine_options.threads = 2;
  re::ReclaimEngine engine(engine_options);
  re::ReclaimEngine reference(re::EngineOptions{.threads = 1});
  const rm::EnergyModel model = rm::ContinuousModel{2.0};

  for (const auto& instance : instances) {
    std::promise<rc::Solution> promise;
    engine.submit({instance, reclaim::sched::Mapping(1)}, model, {},
                  [&promise](rc::Solution solution, std::exception_ptr error) {
                    EXPECT_EQ(error, nullptr);
                    promise.set_value(std::move(solution));
                  });
    expect_identical(promise.get_future().get(),
                     reference.solve_one(instance, model));
  }
  EXPECT_EQ(engine.stats().instances, instances.size());
}

TEST(ReclaimEngine, SubmitReportsPoisonedInstanceViaExceptionPtr) {
  rc::Instance poisoned;  // bypass make_instance's validation on purpose
  poisoned.exec_graph = rg::make_chain({1.0, 2.0});
  poisoned.deadline = -1.0;

  for (const std::size_t threads : {1u, 4u}) {
    re::EngineOptions engine_options;
    engine_options.threads = threads;
    re::ReclaimEngine engine(engine_options);
    std::promise<std::exception_ptr> promise;
    engine.submit({poisoned, reclaim::sched::Mapping(1)},
                  rm::ContinuousModel{2.0}, {},
                  [&promise](rc::Solution, std::exception_ptr error) {
                    promise.set_value(error);
                  });
    const std::exception_ptr error = promise.get_future().get();
    ASSERT_NE(error, nullptr);  // delivered to the callback, never thrown
    EXPECT_THROW(std::rethrow_exception(error), reclaim::InvalidArgument);
  }
}

TEST(ReclaimEngine, StatsSampledLiveWhileSolvesInFlight) {
  // The daemon's STATS endpoint samples the counters from another thread
  // while workers are mid-solve; every snapshot must be a sane
  // point-in-time value (and under TSan/ASan, a clean one).
  const auto instances = mixed_instances(67);
  re::EngineOptions engine_options;
  engine_options.threads = 4;
  re::ReclaimEngine engine(engine_options);
  std::atomic<std::size_t> done{0};
  for (const auto& instance : instances) {
    engine.submit({instance, reclaim::sched::Mapping(1)},
                  rm::ContinuousModel{2.0}, {},
                  [&done](rc::Solution solution, std::exception_ptr error) {
                    EXPECT_EQ(error, nullptr);
                    EXPECT_TRUE(solution.feasible);
                    done.fetch_add(1, std::memory_order_relaxed);
                  });
  }
  while (done.load(std::memory_order_relaxed) < instances.size()) {
    const auto live = engine.stats();
    EXPECT_LE(live.fresh_solves + live.memo_hits, live.instances);
    EXPECT_LE(live.instances, instances.size());
    EXPECT_LE(live.memo_entries, instances.size());
    std::this_thread::yield();
  }
  const auto final_stats = engine.stats();
  EXPECT_EQ(final_stats.instances, instances.size());
  EXPECT_EQ(final_stats.fresh_solves + final_stats.memo_hits,
            instances.size());
}

TEST(ReclaimEngine, PoisonedInstanceAbortsBatchWithException) {
  auto instances = mixed_instances(53);
  rc::Instance poisoned;  // bypass make_instance's validation on purpose
  poisoned.exec_graph = rg::make_chain({1.0, 2.0});
  poisoned.deadline = -1.0;
  instances.insert(instances.begin() + instances.size() / 2, poisoned);

  for (std::size_t threads : {1, 4}) {
    re::EngineOptions engine_options;
    engine_options.threads = threads;
    re::ReclaimEngine engine(engine_options);
    EXPECT_THROW(
        { auto result = engine.solve_batch(instances, rm::ContinuousModel{2.0}); },
        reclaim::InvalidArgument);
  }
}

TEST(ReclaimEngine, EmptyBatchAndClearCaches) {
  re::ReclaimEngine engine;
  const auto empty =
      engine.solve_batch(std::span<const rc::Instance>{}, rm::ContinuousModel{2.0});
  EXPECT_TRUE(empty.empty());

  const auto instances = mixed_instances(61, 1);
  (void)engine.solve_batch(instances, rm::ContinuousModel{2.0});
  EXPECT_GT(engine.stats().fresh_solves, 0u);
  engine.clear_caches();
  EXPECT_EQ(engine.stats().fresh_solves, 0u);
  EXPECT_EQ(engine.stats().memo_hits, 0u);

  // Cleared caches must not change answers.
  const auto again = engine.solve_batch(instances, rm::ContinuousModel{2.0});
  ASSERT_EQ(again.size(), instances.size());
  for (const auto& s : again) EXPECT_TRUE(s.feasible);
}
