// E9 — solver scalability (the polynomial claims of Theorems 2-3 and the
// exponential reality of Theorem 4), measured with google-benchmark.
//
// Complexity expectations: tree/SP closed forms ~ O(n); the primal-dual
// barrier solver takes ~15-50 Newton steps, each one sparse Cholesky
// (whose cost follows the fill of its minimum-degree ordering: near O(n)
// on trees, more on wide layered DAGs) and two or three solves with it;
// the Vdd LP is polynomial; branch-and-bound grows exponentially with n.
// The barrier cases report Newton steps per solve; the joint speed/sleep
// case reports the work of one solve and whether the joint moves won.
#include <benchmark/benchmark.h>

#include <limits>
#include <memory>

#include "bench_util.hpp"

namespace {

using namespace reclaim;

/// Closed-form tree solves through core::solve with the shape analyzed
/// once up front, as the engine's shape cache hands it over.
void BM_TreeSolver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  const auto g = graph::make_random_out_tree(n, rng);
  auto instance = core::make_instance(g, 1.3 * core::min_deadline(g, 2.0));
  const model::EnergyModel model = model::ContinuousModel{2.0};
  const graph::ShapeInfo shape = graph::analyze(g);
  if (core::solve(instance, model, {}, &shape).method != "tree") {
    state.SkipWithError("not solved by the tree closed form");
    return;
  }
  for (auto _ : state) {
    auto s = core::solve(instance, model, {}, &shape);
    benchmark::DoNotOptimize(s.energy);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TreeSolver)->Arg(50)->Arg(200)->Arg(800)->Complexity();

/// Series-parallel solves from scratch: the decomposition and the SP
/// closed form (uncapped, Theorem 2) both inside the timed region.
void BM_SpSolver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  const auto g = graph::make_random_series_parallel(n, rng);
  auto instance = core::make_instance(g, 2.0 * core::min_deadline(g, 2.0));
  const model::EnergyModel model =
      model::ContinuousModel{std::numeric_limits<double>::infinity()};
  const auto solve = [&] {
    graph::ShapeInfo shape;
    shape.shape = graph::GraphShape::kSeriesParallel;
    shape.sp_tree = std::make_shared<const graph::SpTree>(
        *std::move(graph::sp_decompose(g)));
    return core::solve(instance, model, {}, &shape);
  };
  if (solve().method != "series-parallel") {
    state.SkipWithError("not solved by the SP closed form");
    return;
  }
  for (auto _ : state) {
    auto s = solve();
    benchmark::DoNotOptimize(s.energy);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpSolver)->Arg(50)->Arg(200)->Arg(800)->Complexity();

/// Barrier solves of `instance`, forced past the closed forms, with the
/// Newton steps of one solve as a counter.
void run_barrier(benchmark::State& state, const core::Instance& instance) {
  core::ContinuousOptions force;
  force.force_numeric = true;
  std::size_t steps = 0;
  for (auto _ : state) {
    auto s =
        core::solve_continuous(instance, model::ContinuousModel{2.0}, force);
    benchmark::DoNotOptimize(s.energy);
    steps = s.iterations;
  }
  state.counters["newton_steps"] = static_cast<double>(steps);
  state.SetComplexityN(state.range(0));
}

void BM_NumericBarrier(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  const auto g = graph::make_layered(n / 5, 5, 0.4, rng);
  run_barrier(state,
              core::make_instance(g, 1.4 * core::min_deadline(g, 2.0)));
}
BENCHMARK(BM_NumericBarrier)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1000)
    ->Complexity();

/// The tree solver's instances through the barrier: a random out-tree has
/// parents far (in index order) from their children, so this case shows
/// the ordering keeping the factor sparse.
void BM_NumericBarrierOutTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  const auto g = graph::make_random_out_tree(n, rng);
  run_barrier(state,
              core::make_instance(g, 1.3 * core::min_deadline(g, 2.0)));
}
BENCHMARK(BM_NumericBarrierOutTree)->Arg(1000);

/// Joint speed/sleep solves of a mapped layered DAG on 3 processors,
/// under a sleep spec (P_stat = 1, P_idle = 1.5, P_sleep = 0, E_wake = 8)
/// where the joint moves beat the race anchor. `iterations` is the work
/// of one solve: barrier steps, race and joint evaluations.
void BM_JointSleep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  const auto app = graph::make_layered(n / 5, 5, 0.4, rng);
  const auto schedule = sched::list_schedule(app, 3, 2.0);
  auto exec = sched::build_execution_graph(app, schedule.mapping);
  const double deadline = 2.5 * core::min_deadline(exec, 2.0);
  const auto sleep = model::make_sleep_spec(1.5, 0.0, 8.0);
  const auto power = model::make_power_model(3.0, 1.0, sleep);
  const auto instance = core::make_instance(std::move(exec), deadline, power);
  const model::ContinuousModel cont{2.0};
  core::JointSleepResult r;
  for (auto _ : state) {
    r = core::solve_joint_sleep(instance, cont, schedule.mapping);
    benchmark::DoNotOptimize(r.solution.energy);
  }
  state.counters["iterations"] = static_cast<double>(r.solution.iterations);
  state.counters["improved"] = r.improved ? 1.0 : 0.0;
}
BENCHMARK(BM_JointSleep)
    ->Arg(25)
    ->Arg(100)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_VddLp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  const auto g = graph::make_layered(n / 5, 5, 0.4, rng);
  auto instance = core::make_instance(g, 1.4 * core::min_deadline(g, 2.0));
  const auto modes = bench::spread_modes(4, 0.5, 2.0);
  for (auto _ : state) {
    auto s = core::solve_vdd_lp(instance, model::VddHoppingModel{modes});
    benchmark::DoNotOptimize(s.solution.energy);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VddLp)->Arg(15)->Arg(30)->Arg(60)->Complexity();

void BM_DiscreteBb(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  const auto g = graph::make_layered(2, n / 2, 0.5, rng);
  auto instance = core::make_instance(g, 1.25 * core::min_deadline(g, 2.0));
  const auto modes = bench::spread_modes(4, 0.5, 2.0);
  for (auto _ : state) {
    auto s = core::solve_discrete_exact(instance, modes);
    benchmark::DoNotOptimize(s.solution.energy);
    state.counters["bb_nodes"] =
        static_cast<double>(s.nodes_explored);
  }
}
BENCHMARK(BM_DiscreteBb)->Arg(8)->Arg(10)->Arg(12)->Arg(14);

void BM_SpDecompose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  const auto g = graph::make_random_series_parallel(n, rng);
  for (auto _ : state) {
    auto tree = graph::sp_decompose(g);
    benchmark::DoNotOptimize(tree->root);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpDecompose)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

void BM_EngineBatch(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  util::Rng rng(909);
  std::vector<core::Instance> instances;
  auto add = [&instances](graph::Digraph g) {
    const double deadline = 1.4 * core::min_deadline(g, 2.0);
    instances.push_back(core::make_instance(std::move(g), deadline));
  };
  for (int k = 0; k < 16; ++k) {
    add(graph::make_chain(20, rng));
    add(graph::make_random_out_tree(24, rng));
    add(graph::make_fork_join_chain(3, 4, rng));
    add(graph::make_stencil(4, 5, rng));
  }
  engine::EngineOptions options;
  options.threads = threads;
  options.memoize = false;  // measure raw solve throughput, not cache hits
  engine::ReclaimEngine eng(options);
  for (auto _ : state) {
    auto out = eng.solve_batch(instances, model::ContinuousModel{2.0});
    benchmark::DoNotOptimize(out.back().energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    instances.size()));
}
BENCHMARK(BM_EngineBatch)->Arg(1)->Arg(2)->Arg(4);

void BM_ListSchedule(benchmark::State& state) {
  const auto tiles = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_tiled_cholesky(tiles);
  for (auto _ : state) {
    auto r = sched::list_schedule(g, 8, 1.0);
    benchmark::DoNotOptimize(r.makespan);
  }
}
BENCHMARK(BM_ListSchedule)->Arg(4)->Arg(8)->Arg(12);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== E9 solver scalability (Theorems 2-4) ===\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
