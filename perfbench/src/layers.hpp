// Per-layer metrics of the traced run.
//
// Three sources feed them:
//   - tallies of the timed run's answers (Solution::method and
//     Solution::iterations: solves, iterations and Newton steps per
//     solver family and barrier size);
//   - the engine's or server's counters (EngineStats / StatsReply);
//   - a replay of a seeded sample of the workload's inputs through each
//     layer's public functions, one span per call, in the order the
//     server runs them: net::decode -> io parse -> sched::list_schedule ->
//     sched::build_execution_graph -> core::make_instance ->
//     graph::classify / sp_decompose -> engine::instance_key ->
//     core::solve -> ReclaimEngine::solve_one (miss, then hit) ->
//     ReclaimEngine::submit -> net::encode -> net::write_frame.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "check.hpp"
#include "common.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "engine/reclaim_engine.hpp"
#include "model/energy_model.hpp"
#include "net/wire.hpp"
#include "sched/mapping.hpp"

namespace perfbench {

/// The server's rebuild of a SOLVE body (net/server.cpp), stage by stage:
/// parse the graph, parse the mapping or list-schedule one, build the
/// execution graph, make the instance. Each stage is a span when traced.
[[nodiscard]] reclaim::engine::MappedInstance rebuild_request(
    const reclaim::net::SolveRequest& request);

/// The SOLVE payload a daemon client would send for `instance`: graph text
/// plus a one-task-per-processor mapping, so the server's execution graph
/// is the instance's own graph. Empty when the wire cannot carry the
/// instance unchanged (per-task processor assignments).
[[nodiscard]] std::string solve_payload(
    const reclaim::core::Instance& instance,
    const reclaim::model::EnergyModel& model);

/// Every per-layer metric, in print order, with its unit.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalog();

/// One input as the replay sees it. With `payload` set (serve) the
/// instance is rebuilt from the SOLVE bytes through the server's stages
/// and must match `instance`.
struct ReplayItem {
  const reclaim::core::Instance* instance = nullptr;
  const reclaim::sched::Mapping* mapping = nullptr;
  const reclaim::model::EnergyModel* model = nullptr;
  reclaim::core::SolveOptions options;
  const std::string* payload = nullptr;
};

class Layers {
 public:
  /// Tallies one answer of the timed run (thread-safe). `seconds` is the
  /// answer's share of its timed call, attributed to its solver family.
  void tally(const reclaim::core::Instance& instance,
             const reclaim::core::Solution& solution, double seconds = 0.0);

  /// Memo, shape-cache, kernel and route counters of the timed engine.
  void engine_counters(const reclaim::engine::EngineStats& stats);

  /// Runs every item through the layers (see the file comment), checking
  /// each answer against the reference route.
  void replay(const std::vector<ReplayItem>& items, Checker& checker);

  /// Times la::Cholesky on SPD matrices of the barrier's KKT sizes.
  void cholesky_probe(std::uint64_t seed, bool tiny);

  /// Median PING -> PONG round trip through a ReclaimServer serving a
  /// socketpair.
  void ping_probe(std::size_t pings);

  void set(const std::string& name, double value) { values_[name] = value; }

  /// Fills `report` with every catalog metric (0 where this workload does
  /// not exercise the layer).
  void emit(Report& report);

 private:
  struct FamilyTally {
    std::size_t solves = 0;
    double iterations = 0.0;
    double seconds = 0.0;
  };

  std::mutex mutex_;
  std::map<std::string, FamilyTally> families_;     // guarded by mutex_
  std::map<std::string, FamilyTally> newton_;       // guarded by mutex_
  std::map<std::string, double> values_;
  /// Replay: reference solve time and iterations of numeric-barrier
  /// items per size bucket.
  std::map<std::string, std::pair<double, double>> replay_barrier_;
  std::vector<double> submit_wait_us_;
};

}  // namespace perfbench
