// Umbrella header for the reclaim library.
//
// reclaim implements "Reclaiming the Energy of a Schedule: Models and
// Algorithms" (Aupy, Benoit, Dufossé, Robert; SPAA'11): given a task graph
// whose mapping onto identical processors is frozen, choose per-task
// speeds minimizing dynamic energy under a deadline, under the Continuous,
// Discrete, Vdd-Hopping and Incremental speed models.
//
// Typical flow:
//   1. build a task graph          (graph::Digraph, graph/generators.hpp)
//   2. map it                      (sched::list_schedule / explicit Mapping)
//   3. derive the execution graph  (sched::build_execution_graph)
//   4. make an instance            (core::make_instance)
//   5. solve under a model         (core::solve_continuous, solve_vdd_lp,
//                                   solve_discrete_exact, solve_round_up, ...)
#pragma once

#include "core/analysis.hpp"
#include "core/baselines.hpp"
#include "core/continuous/dispatch.hpp"
#include "core/continuous/joint_sleep.hpp"
#include "core/continuous/numeric_solver.hpp"
#include "core/continuous/race_to_idle.hpp"
#include "core/continuous/sleep_dp.hpp"
#include "core/discrete/chain_dp.hpp"
#include "core/discrete/exact_bb.hpp"
#include "core/discrete/round_up.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "core/tradeoff.hpp"
#include "core/vdd/lp_solver.hpp"
#include "core/vdd/two_mode.hpp"
#include "engine/instance_key.hpp"
#include "engine/reclaim_engine.hpp"
#include "io/graph_io.hpp"
#include "graph/classify.hpp"
#include "graph/digraph.hpp"
#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "graph/sp_tree.hpp"
#include "graph/topo.hpp"
#include "model/energy_model.hpp"
#include "model/platform.hpp"
#include "model/power.hpp"
#include "model/power_model.hpp"
#include "model/speed_set.hpp"
#include "sched/execution_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/mapping.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
