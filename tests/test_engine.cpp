// ReclaimEngine tests: batch/single-shot parity, determinism across thread
// counts, memo and dispatch-cache behavior, and exception propagation from
// a poisoned instance mid-batch; SolutionCache against a reference LRU.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <limits>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "engine/instance_key.hpp"
#include "engine/reclaim_engine.hpp"
#include "graph/generators.hpp"
#include "model/energy_model.hpp"
#include "model/platform.hpp"
#include "sched/execution_graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rc = reclaim::core;
namespace re = reclaim::engine;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;
namespace rs = reclaim::sched;

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

namespace {

/// The LRU the SolutionCache must behave like, written the obvious way
/// (a std::list in recency order and a std::map index). Each entry's
/// byte charge is supplied by the caller.
class ReferenceLru {
 public:
  explicit ReferenceLru(re::CacheLimits limits) : limits_(limits) {}

  std::optional<rc::Solution> get(const std::string& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->solution;
  }

  void put(const std::string& key, const rc::Solution& solution,
           std::size_t charge) {
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // first answer stays
      return;
    }
    lru_.push_front({key, solution, charge});
    index_.emplace(key, lru_.begin());
    stats_.bytes += charge;
    ++stats_.insertions;
    while (lru_.size() > 1 &&
           ((limits_.max_entries != 0 && lru_.size() > limits_.max_entries) ||
            (limits_.max_bytes != 0 && stats_.bytes > limits_.max_bytes))) {
      stats_.bytes -= lru_.back().charge;
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++stats_.evictions;
    }
    stats_.entries = lru_.size();
  }

  void clear() {
    lru_.clear();
    index_.clear();
    stats_ = {};
  }

  [[nodiscard]] const re::CacheStats& stats() const { return stats_; }

 private:
  struct Node {
    std::string key;
    rc::Solution solution;
    std::size_t charge;
  };
  re::CacheLimits limits_;
  std::list<Node> lru_;
  std::map<std::string, std::list<Node>::iterator> index_;
  re::CacheStats stats_;
};

/// What an empty, uncapped cache charges for one entry.
std::size_t charge_of(const std::string& key, const rc::Solution& solution) {
  re::SolutionCache probe;
  probe.put(key, solution);
  return probe.stats().bytes;
}

/// Keys that stress the index: the empty key, groups that differ only in
/// their last byte (at three lengths, up to the size of a real instance
/// key), and many equal-length keys.
std::vector<std::string> differential_keys() {
  std::vector<std::string> keys{""};
  for (const std::size_t length : {1, 24, 400}) {
    for (char last = 'a'; last < 'a' + 8; ++last) {
      std::string key(length - 1, 'k');
      key.push_back(last);
      keys.push_back(std::move(key));
    }
  }
  for (int i = 0; i < 160; ++i) {
    std::string key = "key-" + std::to_string(1000 + i);  // all 8 bytes
    keys.push_back(std::move(key));
  }
  return keys;
}

}  // namespace

TEST(SolutionCache, ChargesTheKeyBytesAndTheSolutionHeap) {
  rc::Solution solution;
  solution.method = "closed-form-single";
  solution.speeds = {1.0, 2.0};
  const std::size_t base = charge_of("key", solution);
  EXPECT_EQ(charge_of("key+", solution), base + 1);
  solution.speeds.push_back(3.0);
  EXPECT_EQ(charge_of("key", solution), base + sizeof(double));
}

TEST(SolutionCache, MatchesReferenceLruUnderEveryCap) {
  const std::vector<std::string> keys = differential_keys();
  // Distinct answers with different heap footprints, so the byte charge
  // varies per entry and a wrong answer cannot pass for a right one.
  std::vector<rc::Solution> answers(7);
  for (std::size_t a = 0; a < answers.size(); ++a) {
    answers[a].feasible = a % 2 == 0;
    answers[a].energy = 1.0 + static_cast<double>(a);
    answers[a].iterations = 7 * a;
    answers[a].speeds.assign(a * 3, 0.5 * static_cast<double>(a));
    answers[a].method = std::string(a * 5, 'm');
    // Profiles of uneven lengths (some empty), as Vdd answers carry.
    answers[a].profiles.resize(a % 3 == 0 ? 0 : a);
    for (std::size_t p = 0; p < answers[a].profiles.size(); ++p) {
      for (std::size_t g = 0; g < p % 3; ++g) {
        answers[a].profiles[p].segments.push_back(
            {0.25 * static_cast<double>(a + g), 1.0 + static_cast<double>(p)});
      }
    }
  }
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> charges;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (std::size_t a = 0; a < answers.size(); ++a) {
      charges[{k, a}] = charge_of(keys[k], answers[a]);
    }
  }
  std::size_t mean_charge = 0;
  for (const auto& [ka, charge] : charges) mean_charge += charge;
  mean_charge /= charges.size();

  // Uncapped, the whole key space fits (the index grows from 16 slots to
  // 512). Capped at 40-100 entries of ~200, the cache runs full with the
  // index between a quarter and half loaded, so LRU victims leave holes
  // in the middle of probe chains.
  const std::vector<re::CacheLimits> limit_sets = {
      {0, 0},
      {100, 0},
      {0, 40 * mean_charge},
      {70, 50 * mean_charge},
      {1, 0},
      {0, 1},  // every entry exceeds the cap: the sole entry stays
  };
  for (const re::CacheLimits& limits : limit_sets) {
    SCOPED_TRACE("max_entries " + std::to_string(limits.max_entries) +
                 ", max_bytes " + std::to_string(limits.max_bytes));
    re::SolutionCache cache(limits);
    ReferenceLru reference(limits);
    reclaim::util::Rng rng(2024 + limits.max_entries + limits.max_bytes);
    // One answer per key for the whole run, as the engine's memo sees.
    std::vector<std::size_t> answer_of(keys.size());
    for (auto& a : answer_of) {
      a = static_cast<std::size_t>(rng.uniform_int(0, 6));
    }
    std::uint64_t evictions = 0;  // over the clears
    for (int op = 0; op < 20000; ++op) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(keys.size()) - 1));
      const std::string& key = keys[k];
      const double dice = rng.uniform();
      if (dice < 0.0002) {
        evictions += cache.stats().evictions;
        cache.clear();
        reference.clear();
      } else if (dice < 0.5) {
        const auto got = rng.bernoulli(0.5)
                             ? cache.get(key)
                             : cache.get(key, re::SolutionCache::hash_of(key));
        const auto want = reference.get(key);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
        if (got) {
          expect_identical(*got, *want);
          ASSERT_EQ(got->iterations, want->iterations);
          ASSERT_EQ(got->feasible, answers[answer_of[k]].feasible);
          ASSERT_EQ(got->energy, answers[answer_of[k]].energy);
        }
      } else {
        const rc::Solution& answer = answers[answer_of[k]];
        if (rng.bernoulli(0.5)) {
          cache.put(key, answer);
        } else {
          cache.put(key, re::SolutionCache::hash_of(key), answer);
        }
        reference.put(key, answer, charges[{k, answer_of[k]}]);
      }
      const re::CacheStats got = cache.stats();
      const re::CacheStats& want = reference.stats();
      ASSERT_EQ(got.entries, want.entries) << "op " << op;
      ASSERT_EQ(got.bytes, want.bytes) << "op " << op;
      ASSERT_EQ(got.hits, want.hits) << "op " << op;
      ASSERT_EQ(got.misses, want.misses) << "op " << op;
      ASSERT_EQ(got.insertions, want.insertions) << "op " << op;
      ASSERT_EQ(got.evictions, want.evictions) << "op " << op;
    }
    if (limits.max_entries == 0 && limits.max_bytes == 0) {
      EXPECT_GT(cache.stats().entries, 150u);  // grew well past 16 slots
    } else {
      EXPECT_GT(evictions + cache.stats().evictions, 1000u);
    }
  }
}

namespace {

/// A two-processor instance on a sleep-enabled platform (the race-to-idle
/// route prices its mapping), with task B before or after task C on
/// processor 1.
re::MappedInstance sleep_instance(double deadline, bool b_first) {
  rg::Digraph app;
  const auto a = app.add_node(1.0, "A");
  const auto b = app.add_node(2.0, "B");
  const auto c = app.add_node(0.5, "C");
  app.add_edge(a, c);
  rs::Mapping mapping(2);
  mapping.assign(0, a);
  mapping.assign(1, b_first ? b : c);
  mapping.assign(1, b_first ? c : b);
  const auto power = rm::PowerModel(rm::StaticPowerLaw(3.0, 2.0))
                         .with_sleep(rm::make_sleep_spec(3.0, 0.0, 6.0));
  return {rc::make_instance(rs::build_execution_graph(app, mapping), deadline,
                            rm::Platform::uniform(2, power), mapping),
          mapping};
}

}  // namespace

TEST(ReclaimEngine, ReusedKeyBufferHitsAsFreshKeysWould) {
  // One thread: every solve encodes its key into the same buffer. Plain
  // and mapped solves alternate (a plain key is a prefix of its mapped
  // key), and some solves throw part-way through encoding; the memo must
  // hit exactly when a fresh instance_key / mapped_instance_key string
  // was seen before, and answer what was first solved under it.
  const rm::EnergyModel cont = rm::ContinuousModel{2.0};
  const rc::SolveOptions opts;
  rc::SolveOptions poisoned;
  poisoned.rel_gap = std::numeric_limits<double>::quiet_NaN();
  std::vector<re::MappedInstance> instances;
  for (const double deadline : {6.0, 7.5, 9.0}) {
    for (const bool b_first : {true, false}) {
      instances.push_back(sleep_instance(deadline, b_first));
    }
  }
  re::EngineOptions engine_options;
  engine_options.threads = 1;
  re::ReclaimEngine engine(engine_options);
  std::map<std::string, rc::Solution> seen;
  reclaim::util::Rng rng(31);
  std::size_t hits = 0;
  std::size_t throws = 0;
  for (int step = 0; step < 120; ++step) {
    const auto& m = instances[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(instances.size()) - 1))];
    const bool mapped = step % 2 == 1;
    if (rng.bernoulli(0.2)) {
      ++throws;
      if (mapped) {
        EXPECT_THROW((void)engine.solve_one(m, cont, poisoned),
                     reclaim::InvalidArgument);
      } else {
        EXPECT_THROW((void)engine.solve_one(m.instance, cont, poisoned),
                     reclaim::InvalidArgument);
      }
    }
    const std::string key =
        mapped ? re::mapped_instance_key(m.instance, m.mapping, cont, opts)
               : re::instance_key(m.instance, cont, opts);
    const auto before = engine.stats();
    const rc::Solution answer =
        mapped ? engine.solve_one(m, cont, opts)
               : engine.solve_one(m.instance, cont, opts);
    const auto after = engine.stats();
    const auto [it, fresh] = seen.emplace(key, answer);
    SCOPED_TRACE("step " + std::to_string(step));
    EXPECT_EQ(after.memo_hits - before.memo_hits, fresh ? 0u : 1u);
    EXPECT_EQ(after.fresh_solves - before.fresh_solves, fresh ? 1u : 0u);
    expect_identical(answer, it->second);
    hits += fresh ? 0 : 1;
  }
  EXPECT_EQ(engine.stats().memo_entries, seen.size());
  EXPECT_EQ(seen.size(), 2 * instances.size());  // plain and mapped keys
  EXPECT_GT(hits, 60u);
  EXPECT_GT(throws, 10u);
}
