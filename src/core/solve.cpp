#include "core/solve.hpp"

#include "core/continuous/dispatch.hpp"
#include "core/continuous/joint_sleep.hpp"
#include "core/continuous/race_to_idle.hpp"
#include "core/continuous/sleep_dp.hpp"
#include "core/discrete/chain_dp.hpp"
#include "core/discrete/exact_bb.hpp"
#include "core/discrete/round_up.hpp"
#include "core/vdd/lp_solver.hpp"

namespace reclaim::core {

namespace {

Solution solve_mode_based(const Instance& instance, const model::ModeSet& modes,
                          const SolveOptions& options,
                          const graph::ShapeInfo* shape) {
  const auto& g = instance.exec_graph;
  if (g.num_nodes() <= options.exact_discrete_up_to) {
    return solve_discrete_exact(instance, modes).solution;
  }
  // exact_discrete_up_to == 0 means "force CONT-ROUND" (callers validating
  // Theorem 5 rely on it), so it disables the chain DP too.
  const bool serial = shape ? shape->shape == graph::GraphShape::kChain ||
                                  shape->shape == graph::GraphShape::kSingleTask
                            : graph::is_chain(g);
  if (options.exact_discrete_up_to > 0 && serial) {
    return solve_chain_dp(instance, modes).solution;
  }
  RoundUpOptions round_options;
  round_options.continuous_rel_gap = options.rel_gap;
  return solve_round_up(instance, modes, round_options).solution;
}

}  // namespace

bool prices_mapping(const Instance& instance,
                    const model::EnergyModel& energy_model,
                    const SolveOptions& options) {
  return options.sleep_mode != SleepMode::kDp &&
         std::holds_alternative<model::ContinuousModel>(energy_model) &&
         instance.platform.has_sleep();
}

Solution solve(const Instance& instance, const model::EnergyModel& energy_model,
               const SolveOptions& options, const graph::ShapeInfo* shape,
               const sched::Mapping* mapping) {
  return std::visit(
      [&](const auto& m) -> Solution {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, model::ContinuousModel>) {
          // kDp is the exact single-processor oracle (throws off its
          // eligibility domain); it needs no mapping.
          if (options.sleep_mode == SleepMode::kDp &&
              instance.platform.has_sleep()) {
            return solve_sleep_dp(instance, m).solution;
          }
          ContinuousOptions continuous_options;
          continuous_options.rel_gap = options.rel_gap;
          continuous_options.s_min = options.continuous_s_min;
          continuous_options.leakage = options.leakage;
          continuous_options.shape = shape;
          // The race and the joint refinement price idle gaps under the
          // mapping; with no mapping in sight both answer with the crawl.
          if (mapping == nullptr ||
              !prices_mapping(instance, energy_model, options)) {
            return solve_continuous(instance, m, continuous_options);
          }
          const RaceToIdleOptions race{continuous_options};
          if (options.sleep_mode == SleepMode::kJoint) {
            return solve_joint_sleep(instance, m, *mapping, {race}).solution;
          }
          return solve_race_to_idle(instance, m, *mapping, race).solution;
        } else if constexpr (std::is_same_v<M, model::VddHoppingModel>) {
          return solve_vdd_lp(instance, m).solution;
        } else if constexpr (std::is_same_v<M, model::DiscreteModel>) {
          return solve_mode_based(instance, m.modes, options, shape);
        } else {
          static_assert(std::is_same_v<M, model::IncrementalModel>);
          return solve_mode_based(instance, m.modes, options, shape);
        }
      },
      energy_model);
}

}  // namespace reclaim::core
