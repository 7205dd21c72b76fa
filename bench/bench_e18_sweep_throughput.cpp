// E18 — sweep throughput: the batched fast path on homogeneous grids.
//
// A parameter sweep (Pareto curve, deadline grid) hands the engine
// thousands of instances sharing one topology and power model; only the
// task weights and the deadline vary. This bench measures what the
// long-run driver buys on that workload:
//
//   (a) closed-form grid sweeps (single / chain / fork) through one
//       solve_batch call — a long run, planned once and kept out of the
//       memo — against the per-instance route that short runs and daemon
//       requests take (solve_one: shape lookup and core::solve, plus key
//       build, memo probe and insert when the memo is on). Acceptance:
//       >= 1.2x inst/s on at least one family against the memo-OFF
//       per-instance route, and bit-identical results (long run vs
//       per-instance vs core::solve, asserted in-process here, fuzzed in
//       tests/test_batch_kernels.cpp). The gate compares against the best
//       alternative for distinct instances: with the memo on, the
//       per-instance route also pays for a memo that never hits, so its
//       ratio moves with the memo's own cost rather than with the long
//       run's. The memo-ON column is printed without a gate.
#include <iostream>
#include <limits>
#include <memory>
#include <utility>
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
  double seconds = std::numeric_limits<double>::infinity();
  std::vector<core::Solution> solutions;
};

/// One timed configuration: a one-thread engine with the memo on or off,
/// driven through one solve_batch call per grid (a long run) or one
/// solve_one call per instance.
struct Config {
  bool memoize;
  bool long_run;
};

/// Solves `instances` through `eng`: one solve_batch call (a long run)
/// or one solve_one call per instance.
std::vector<core::Solution> drive(engine::ReclaimEngine& eng,
                                  const std::vector<core::Instance>& instances,
                                  const model::EnergyModel& model,
                                  bool long_run) {
  if (long_run) {
    return eng.solve_batch(std::span<const core::Instance>(instances), model);
  }
  std::vector<core::Solution> out;
  out.reserve(instances.size());
  for (const auto& instance : instances) {
    out.push_back(eng.solve_one(instance, model));
  }
  return out;
}

/// Best-of-N timed sweeps with the configs interleaved round-robin: each
/// rep times every engine back to back, so slow drift in host load lands
/// on all columns instead of skewing the acceptance ratio. `grids` holds
/// one distinct instance set per rep (a sweep never re-solves an
/// instance, so repeating one set would let the memo answer the repeats
/// and measure cache probes instead of sweep work). Grid 0 is an untimed
/// warm-up (shape cache, and a populated memo for the memoizing
/// per-instance engine). threads == 1 isolates the per-instance cost — at
/// hardware threads the pool's fixed costs dominate a millisecond-scale
/// closed-form batch and mask the overhead being measured. Each Timing
/// carries the best rep's seconds with the first timed grid's solutions
/// (for identity checks).
std::vector<Timing> timed_sweeps(
    const std::vector<std::vector<core::Instance>>& grids,
    const model::EnergyModel& model, const std::vector<Config>& configs) {
  std::vector<std::unique_ptr<engine::ReclaimEngine>> engines;
  for (const Config& config : configs) {
    engine::EngineOptions options;
    options.threads = 1;
    options.memoize = config.memoize;
    engines.push_back(std::make_unique<engine::ReclaimEngine>(options));
    (void)drive(*engines.back(), grids.front(), model, config.long_run);
  }
  std::vector<Timing> best(engines.size());
  for (std::size_t r = 1; r < grids.size(); ++r) {
    for (std::size_t c = 0; c < engines.size(); ++c) {
      util::Timer timer;
      auto out = drive(*engines[c], grids[r], model, configs[c].long_run);
      const double seconds = timer.seconds();
      if (seconds < best[c].seconds) best[c].seconds = seconds;
      if (r == 1) best[c].solutions = std::move(out);
    }
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
                "homogeneous grid sweeps through the engine: long runs vs the "
                "per-instance route (acceptance: >= 1.2x inst/s vs "
                "per-instance memo-OFF, bit-identical)");

  const model::EnergyModel continuous = model::ContinuousModel{2.0};
  const std::size_t kGrid = 20000;

  // Three configurations over the same grids, each on one thread:
  //   per-instance — solve_one on a memo-ON engine: every solve pays the
  //                  canonical key, the memo probe and insert, the shape
  //                  lookup and core::solve,
  //   no-memo      — the same route with the memo ablated (the gated
  //                  baseline),
  //   long run     — one solve_batch call: the run is planned once and
  //                  solved in one pass, bypassing dispatch and memo.
  const auto measure = [&] {
    bool speedup_met = false;
    util::Table table("(a) closed-form grids: long runs vs the per-instance "
                      "route (1 thread)",
                      {"family", "instances", "per-instance inst/s",
                       "no-memo inst/s", "long-run inst/s",
                       "vs per-instance", "vs no-memo"});
    for (const char* family : {"single", "chain", "fork"}) {
      std::vector<std::vector<core::Instance>> grids;
      for (std::uint64_t r = 0; r < 4; ++r) {
        grids.push_back(grid(family, kGrid, 1818 + 31 * r));
      }
      const double n = static_cast<double>(kGrid);
      const std::vector<Timing> timings =
          timed_sweeps(grids, continuous,
                       {{/*memoize=*/true, /*long_run=*/false},
                        {/*memoize=*/false, /*long_run=*/false},
                        {/*memoize=*/true, /*long_run=*/true}});
      const Timing& per_instance = timings[0];
      const Timing& no_memo = timings[1];
      const Timing& long_run = timings[2];
      std::vector<core::Solution> reference;
      reference.reserve(grids[1].size());
      for (const auto& instance : grids[1]) {
        reference.push_back(core::solve(instance, continuous));
      }
      require_identical(long_run.solutions, per_instance.solutions, family);
      require_identical(long_run.solutions, no_memo.solutions, family);
      require_identical(long_run.solutions, reference, family);
      const double per_instance_rate = n / per_instance.seconds;
      const double no_memo_rate = n / no_memo.seconds;
      const double long_run_rate = n / long_run.seconds;
      if (long_run_rate >= 1.2 * no_memo_rate) speedup_met = true;
      table.add_row(
          {family, util::Table::fmt(kGrid),
           util::Table::fmt(per_instance_rate, 1),
           util::Table::fmt(no_memo_rate, 1),
           util::Table::fmt(long_run_rate, 1),
           util::Table::fmt_ratio(long_run_rate / per_instance_rate, 2),
           util::Table::fmt_ratio(long_run_rate / no_memo_rate, 2)});
    }
    table.print(std::cout);
    std::cout << "long-run results verified bit-identical to the "
                 "per-instance route and to core::solve"
              << std::endl;
    return speedup_met;
  };

  bool speedup_met = measure();
  if (!speedup_met) {
    // One confirmation pass before failing: a contention burst on a shared
    // host can shave the ratio below the line, while a genuinely sub-1.2x
    // host fails both attempts.
    std::cout << "\nbest ratio under 1.2x on the first attempt -- "
                 "re-measuring once before failing\n";
    speedup_met = measure();
  }
  if (!speedup_met) {
    std::cout.flush();
    throw NumericalError(
        "acceptance failed: no closed-form family reached 1.2x inst/s in "
        "long runs over the memo-OFF per-instance route");
  }
  std::cout << "\nAcceptance met: >= 1.2x inst/s on at least one "
               "homogeneous-grid sweep in long runs over the memo-OFF "
               "per-instance route, results bit-identical.\n";
  return 0;
}
