// E18 — sweep throughput: the batched fast path on homogeneous grids.
//
// A parameter sweep (Pareto curve, deadline grid) hands the engine
// thousands of instances sharing one topology and power model; only the
// task weights and the deadline vary. This bench measures what the
// batched fast path buys on that workload:
//
//   (a) closed-form grid sweeps (single / chain / fork), kernels ON vs
//       OFF — the structure-of-arrays kernels vs per-instance dispatch.
//       Acceptance: >= 5x inst/s with kernels on, and bit-identical
//       results (asserted in-process here, fuzzed in
//       tests/test_batch_kernels.cpp).
#include <iostream>
#include <limits>
#include <vector>

#include "bench_util.hpp"
#include "util/timer.hpp"

namespace {

using namespace reclaim;

/// A homogeneous grid: `count` instances of one family with weights and
/// deadlines varying per instance — the kernel-batchable shape.
std::vector<core::Instance> grid(const std::string& family, std::size_t count,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::Instance> out;
  out.reserve(count);
  std::vector<double> weights(family == "single" ? 1 : 8);
  for (std::size_t i = 0; i < count; ++i) {
    for (double& w : weights) w = rng.uniform(0.5, 4.0);
    graph::Digraph g = family == "chain"  ? graph::make_chain(weights)
                       : family == "fork" ? graph::make_fork(weights)
                                          : graph::make_chain({weights[0]});
    const double d = rng.uniform(1.1, 3.0) * core::min_deadline(g, 2.0);
    out.push_back(core::make_instance(std::move(g), d));
  }
  return out;
}

struct Timing {
  double seconds = 0.0;
  std::vector<core::Solution> solutions;
};

/// Best-of-N timed batch through a fresh engine. `grids` holds one
/// distinct instance set per rep (a sweep never re-solves an instance, so
/// repeating one set would let the scalar engine's memo answer the
/// repeats and measure cache probes instead of sweep work). threads == 1
/// isolates the per-instance cost the kernels remove — at hardware
/// threads the pool's fixed costs dominate a millisecond-scale
/// closed-form batch and mask the overhead being measured. Returns the
/// best rate's timing with the *first* grid's solutions (for identity
/// checks).
Timing timed_batch(const std::vector<std::vector<core::Instance>>& grids,
                   const model::EnergyModel& model,
                   const core::SolveOptions& solve_options, bool memoize,
                   bool use_kernels, std::size_t threads) {
  engine::EngineOptions options;
  options.threads = threads;
  options.memoize = memoize;
  options.use_kernels = use_kernels;
  engine::ReclaimEngine eng(options);
  // Warm-up on grid 0 (untimed): shape cache, arenas, pool — and for the
  // memoizing engine, a realistically populated memo to probe against.
  // Grids 1.. are timed; each holds distinct instances, so every timed
  // solve is fresh work under every engine configuration.
  (void)eng.solve_batch(std::span<const core::Instance>(grids.front()), model,
                        solve_options);
  Timing best;
  best.seconds = std::numeric_limits<double>::infinity();
  for (std::size_t r = 1; r < grids.size(); ++r) {
    util::Timer timer;
    auto out = eng.solve_batch(std::span<const core::Instance>(grids[r]),
                               model, solve_options);
    const double seconds = timer.seconds();
    if (seconds < best.seconds) best.seconds = seconds;
    if (r == 1) best.solutions = std::move(out);
  }
  return best;
}

void require_identical(const std::vector<core::Solution>& a,
                       const std::vector<core::Solution>& b,
                       const char* what) {
  if (a.size() != b.size()) throw NumericalError(std::string(what) + ": size");
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].feasible != b[i].feasible || a[i].energy != b[i].energy ||
        a[i].method != b[i].method || a[i].speeds != b[i].speeds) {
      throw NumericalError(std::string(what) +
                           ": result diverged at instance " +
                           std::to_string(i));
    }
  }
}

}  // namespace

int main() {
  bench::banner("E18 sweep throughput (batched kernels)",
                "homogeneous grid sweeps through the engine: SoA kernels vs "
                "scalar dispatch (acceptance: >= 5x inst/s, bit-identical)");

  const model::EnergyModel continuous = model::ContinuousModel{2.0};
  const std::size_t kGrid = 20000;

  bool speedup_met = false;
  {
    // Three engine configurations over the same grids:
    //   scalar    — the engine's default scalar path (memo ON: a sweep of
    //               distinct instances pays canonical-key construction and
    //               memo traffic for every solve; this is what sweeps ran
    //               through before the kernels),
    //   no-memo   — scalar dispatch with the memo ablated,
    //   kernel    — the batched fast path (plans the run once, bypasses
    //               dispatch and memo per instance).
    util::Table table("(a) closed-form grids: kernels vs scalar dispatch "
                      "(1 thread, per-instance cost)",
                      {"family", "instances", "scalar inst/s",
                       "no-memo inst/s", "kernel inst/s", "vs scalar",
                       "vs no-memo"});
    for (const char* family : {"single", "chain", "fork"}) {
      std::vector<std::vector<core::Instance>> grids;
      for (std::uint64_t r = 0; r < 4; ++r) {
        grids.push_back(grid(family, kGrid, 1818 + 31 * r));
      }
      const double n = static_cast<double>(kGrid);
      const Timing scalar =
          timed_batch(grids, continuous, {}, /*memoize=*/true,
                      /*use_kernels=*/false, 1);
      const Timing no_memo =
          timed_batch(grids, continuous, {}, /*memoize=*/false,
                      /*use_kernels=*/false, 1);
      const Timing kernel =
          timed_batch(grids, continuous, {}, /*memoize=*/true,
                      /*use_kernels=*/true, 1);
      require_identical(kernel.solutions, scalar.solutions, family);
      require_identical(kernel.solutions, no_memo.solutions, family);
      const double scalar_rate = n / scalar.seconds;
      const double no_memo_rate = n / no_memo.seconds;
      const double kernel_rate = n / kernel.seconds;
      if (kernel_rate >= 5.0 * scalar_rate) speedup_met = true;
      table.add_row({family, util::Table::fmt(kGrid),
                     util::Table::fmt(scalar_rate, 1),
                     util::Table::fmt(no_memo_rate, 1),
                     util::Table::fmt(kernel_rate, 1),
                     util::Table::fmt_ratio(kernel_rate / scalar_rate, 2),
                     util::Table::fmt_ratio(kernel_rate / no_memo_rate, 2)});
    }
    table.print(std::cout);
    std::cout << "kernel results verified bit-identical to the scalar path"
              << std::endl;
  }

  if (!speedup_met) {
    std::cout.flush();
    throw NumericalError(
        "acceptance failed: no closed-form family reached 5x inst/s with "
        "kernels on");
  }
  std::cout << "\nAcceptance met: >= 5x inst/s on at least one "
               "homogeneous-grid sweep with kernels on, results "
               "bit-identical.\n";
  return 0;
}
