// Shared differential-fuzz harness: the seeded instance generator the
// randomized suites (test_exact_leaky, test_joint_sleep, test_continuous's
// barrier route equivalence) drive their cross-checks through.
//
// One trial = one feasible-by-construction mapped instance:
//
//   app graph -> list_schedule onto P processors (or one task per
//   processor) -> execution graph ->
//   deadline = slack * D_min(exec, s_ref)
//
// where s_ref is the slowest effective cap, so every instance admits the
// constant-s_ref schedule. The RNG call order inside run_fuzz is part of
// the contract: app(trial, rng) first, then platform(trial, procs, rng),
// then one uniform draw for the slack — test_exact_leaky's differential
// suite reproduces its pre-harness instances bit-identically through this
// exact sequence, so do not reorder the draws.
//
// Trial counts honor the RECLAIM_FUZZ_TRIALS environment knob
// (fuzz_trials below): CI pins it low, local runs default deeper.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "model/power_model.hpp"
#include "sched/execution_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/mapping.hpp"
#include "util/rng.hpp"

namespace reclaim::testing {

/// Number of trials a fuzz suite runs: the RECLAIM_FUZZ_TRIALS
/// environment variable when set to a positive integer, else `fallback`.
/// Count-based assertions ("at least K trials improved") must be guarded
/// on the returned value — a shrunken CI run cannot meet a full-run
/// quota.
inline std::size_t fuzz_trials(std::size_t fallback) {
  const char* env = std::getenv("RECLAIM_FUZZ_TRIALS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || n == 0) return fallback;
  return static_cast<std::size_t>(n);
}

/// One generated trial: the mapped instance plus its index (for failure
/// messages and per-trial family decisions).
struct FuzzTrial {
  std::size_t index = 0;
  core::Instance instance;
  sched::Mapping mapping{1};
};

struct FuzzOptions {
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  /// Reference top speed: the s_ref bound of the feasibility argument
  /// (and typically the solve-time s_max).
  double s_top = 2.0;
  /// Deadline slack factor range, drawn uniformly per trial.
  double slack_lo = 1.05;
  double slack_hi = 2.5;
  /// Trial -> app graph; consumes the RNG first.
  std::function<graph::Digraph(std::size_t, util::Rng&)> app;
  /// Trial -> processor count; must not consume the RNG.
  std::function<std::size_t(std::size_t)> procs;
  /// Trial -> platform; consumes the RNG after the app draw.
  std::function<model::Platform(std::size_t, std::size_t, util::Rng&)>
      platform;
  /// Map task v alone onto processor v instead of list scheduling (`procs`
  /// is then unused and the platform gets one processor per task). The
  /// execution graph is the app graph itself, so shape-specific solvers
  /// (chains, forks, trees, SP) still apply to it.
  bool one_task_per_processor = false;
};

/// Drives `check` over `options.trials` generated instances. The draw
/// order (app, platform, slack) is part of the harness contract — see the
/// header comment.
inline void run_fuzz(const FuzzOptions& options,
                     const std::function<void(const FuzzTrial&)>& check) {
  util::Rng rng(options.seed);
  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    graph::Digraph app = options.app(trial, rng);
    const std::size_t procs = options.one_task_per_processor
                                  ? app.num_nodes()
                                  : options.procs(trial);
    const model::Platform platform = options.platform(trial, procs, rng);
    sched::Mapping mapping(procs);
    if (options.one_task_per_processor) {
      for (graph::NodeId v = 0; v < procs; ++v) mapping.assign(v, v);
    } else {
      mapping = sched::list_schedule(app, procs).mapping;
    }
    auto exec = sched::build_execution_graph(app, mapping);
    // Feasible by construction: every task can run at s_ref = the slowest
    // effective cap, and the critical path at s_ref fits in D / slack.
    double s_ref = options.s_top;
    for (std::size_t p = 0; p < procs; ++p) {
      s_ref = std::min(s_ref, platform.cap(p));
    }
    const double slack = rng.uniform(options.slack_lo, options.slack_hi);
    const double deadline = slack * core::min_deadline(exec, s_ref);
    check(FuzzTrial{
        trial, core::make_instance(std::move(exec), deadline, platform, mapping),
        mapping});
  }
}

/// The six-family app rotation of the exact-leaky differential suite:
/// chain, fork, join, diamond, layered, stencil, sized by the trial index.
inline graph::Digraph six_family_app(std::size_t trial, util::Rng& rng) {
  switch (trial % 6) {
    case 0:
      return graph::make_chain(2 + trial % 5, rng);
    case 1:
      return graph::make_fork(2 + trial % 4, rng);
    case 2:
      return graph::make_join(2 + trial % 4, rng);
    case 3:
      return graph::make_diamond(2 + trial % 3, rng);
    case 4:
      return graph::make_layered(3, 2 + trial % 2, 0.5, rng);
    default:
      return graph::make_stencil(2 + trial % 2, 3, rng);
  }
}

/// The exact-leaky platform family: mixed exponents, P_stat in [0, 3]
/// (about one in five leakage-free), caps s_top or uncapped; every 4th
/// trial is fully uncapped (the Vdd LP cross-check needs cap-free
/// instances to be a valid upper bound).
inline model::Platform mixed_leaky_platform(std::size_t trial,
                                            std::size_t procs, util::Rng& rng,
                                            double s_top) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const bool uncapped_trial = trial % 4 == 0;
  std::vector<model::ProcessorSpec> specs;
  for (std::size_t p = 0; p < procs; ++p) {
    const double alpha = 2.0 + 0.5 * static_cast<double>(rng.uniform_int(0, 2));
    const double p_static = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.1, 3.0);
    const double cap = uncapped_trial || rng.bernoulli(0.5) ? kInf : s_top;
    specs.push_back({model::make_power_model(alpha, p_static), cap});
  }
  return model::Platform(std::move(specs));
}

}  // namespace reclaim::testing
