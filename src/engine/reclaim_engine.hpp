// ReclaimEngine: the batched front door of the library.
//
// The paper's experiments — and any production deployment — solve large
// sweeps of independent MinEnergy instances, not one instance at a time.
// The engine turns core::solve() into a high-throughput batch service. It
// is caches and kernels around core::solve, never a second dispatcher:
// every scalar solve is core::solve under the same options, handed the
// instance's mapping where it has one (core::prices_mapping decides
// whether the mapping can change the answer; where it cannot, a mapped
// instance takes the plain route and shares its memo entries).
//
//   - solve_batch() shards a span of instances across a ThreadPool using
//     dynamic (work-stealing-friendly) chunking: workers pull small units
//     (a piece of a sweep, or a chunk of other instances) from a shared
//     atomic cursor, so skewed instances (one huge general DAG among many
//     chains) cannot strand a thread. A single worker runs the same
//     per-range solve in one fused scan-and-solve pass.
//   - A per-structure shape cache runs graph::analyze once per distinct
//     topology and hands the cached graph::ShapeInfo to core::solve, so
//     repeated shapes skip the classification and the SP decomposition.
//   - A run of >= kKernelMinRun instances sharing a topology and power
//     model is a sweep (instances copied from one graph share its
//     structure, so the topology test is a pointer compare): it is
//     planned from its head and solved in one pass (one per piece in a
//     pooled engine) by the closed-form kernels
//     (core/continuous/batch_kernels), bypassing the memo. core::solve
//     answers its closed forms with the same kernels, so the long run is
//     bit-identical to it; instances the planner rejects or the kernel
//     hands back take core::solve.
//   - A solution memo keyed by a canonical instance encoding
//     (engine/instance_key.hpp) returns identical sub-instances of a sweep
//     without re-solving; memoized results are bit-identical to fresh ones
//     because every solver is deterministic. The memo is an LRU cache
//     under entry and byte caps (engine/solution_cache.hpp), so one
//     engine can live for days under a solve daemon (tools/reclaim_serve)
//     and be shared by every client that connects. A miss costs one key
//     encode into a reused per-thread buffer, one hash shared by the
//     probe and the store, one probe of an open-addressing index, and one
//     allocation: the entry is a single block holding its LRU links, the
//     Solution and the key bytes.
//
// Results are deterministic regardless of thread count: output slot i
// always holds the solution of instance i, and routing depends only on
// the instance itself. The first exception raised by a poisoned instance
// aborts the batch and is rethrown on the caller's thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/continuous/batch_kernels.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "engine/solution_cache.hpp"
#include "graph/classify.hpp"
#include "model/energy_model.hpp"
#include "sched/mapping.hpp"
#include "util/annotated_mutex.hpp"
#include "util/thread_pool.hpp"

namespace reclaim::engine {

/// Minimum consecutive compatible instances for solve_batch to treat a
/// run as a sweep of distinct instances: such a run bypasses the memo and
/// is planned from its head. Shorter runs go instance by instance
/// through the memo, and each miss is a core::solve.
inline constexpr std::size_t kKernelMinRun = 4;

struct EngineOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency(). With 1
  /// the batch runs inline on the caller's thread (no pool).
  std::size_t threads = 0;
  /// Memoize solutions by canonical instance key.
  bool memoize = true;
  /// Memo entry cap (0 = unbounded). Once full the least-recently-used
  /// entry is evicted, so a long-lived engine tracks its working set
  /// instead of freezing on whatever filled the cache first.
  std::size_t memo_capacity = 1 << 16;
  /// Memo byte cap (estimated footprint; 0 = unbounded). Evicts from the
  /// cold end alongside the entry cap — the knob a daemon sets
  /// (reclaim_serve --memo-mb) to bound resident memory.
  std::size_t memo_bytes = 0;
};

/// Cumulative counters since construction (or the last clear_caches()).
/// Every counter is a relaxed atomic inside the engine, so stats() may be
/// called from any thread *while a batch is in flight* — the daemon's
/// STATS endpoint samples it live; the snapshot is cheap and never blocks
/// the workers (the memo_* fields are read under the cache's own lock).
struct EngineStats {
  std::size_t batches = 0;
  std::size_t instances = 0;     ///< total instances seen
  std::size_t fresh_solves = 0;  ///< instances that ran a solver
  std::size_t memo_hits = 0;     ///< instances answered from the memo
  std::size_t shape_hits = 0;    ///< classifications answered from the cache
  /// Race-to-idle routing of mapped batches (fresh solves only; memoized
  /// answers are not re-attributed), read off the answer's method:
  /// mapping-priced kRace instances where racing strictly won
  /// ("race-to-idle") vs where the crawl stayed optimal (any other).
  std::size_t raced_solves = 0;
  std::size_t crawl_solves = 0;
  /// Joint speed/sleep routing of mapped batches (SolveOptions::sleep_mode
  /// == kJoint, fresh solves only): instances that ran the joint refiner,
  /// and the subset where it strictly beat the race-to-idle anchor
  /// (method "joint-sleep").
  std::size_t joint_solves = 0;
  std::size_t joint_improved = 0;
  /// Fast-path split of the fresh solves: instances answered by a
  /// closed-form kernel, in long runs or through core::solve (a subset of
  /// fresh_solves; the remainder took the barrier, another model's solver
  /// or a refiner). A mapping-priced answer whose refiner kept a
  /// closed-form crawl counts here too.
  std::size_t kernel_solves = 0;
  /// Per-family split of kernel_solves (which stays the total): which
  /// closed-form kernel solved each fast-path instance (joins count as
  /// the fork family). The tree/SP counters are the observable for
  /// "sweeps stopped re-decomposing".
  std::size_t kernel_single = 0;
  std::size_t kernel_chain = 0;
  std::size_t kernel_fork = 0;
  std::size_t kernel_tree = 0;
  std::size_t kernel_sp = 0;
  /// Long-lived memo surface (engine/solution_cache.hpp): live entries,
  /// estimated bytes, LRU evictions so far, and how stale the coldest
  /// entry is.
  std::size_t memo_entries = 0;
  std::size_t memo_bytes = 0;
  std::size_t memo_evictions = 0;
  double memo_oldest_age_s = 0.0;
  /// Cached topology analyses (the shape cache).
  std::size_t shape_entries = 0;
};

/// A MinEnergy instance together with the mapping its execution graph was
/// built from. The mapping is what idle-interval accounting needs beyond
/// the instance's task -> processor assignment (gap enumeration depends on
/// each processor's execution order), so mapped batches unlock the
/// race-to-idle and joint routes of core::solve: sleep-enabled continuous
/// instances are solved crawl-vs-race instead of busy-only.
struct MappedInstance {
  core::Instance instance;
  sched::Mapping mapping{1};
};

class ReclaimEngine {
 public:
  explicit ReclaimEngine(EngineOptions options = {});
  ~ReclaimEngine();

  ReclaimEngine(const ReclaimEngine&) = delete;
  ReclaimEngine& operator=(const ReclaimEngine&) = delete;

  /// Solves every instance under `model`; slot i of the result is the
  /// solution of instances[i]. Rethrows the first exception raised by a
  /// poisoned instance after aborting the remaining work.
  [[nodiscard]] std::vector<core::Solution> solve_batch(
      std::span<const core::Instance> instances,
      const model::EnergyModel& model, const core::SolveOptions& options = {});

  /// Mapped batch: same sharding/caching, with each instance's mapping
  /// handed to core::solve. Where core::prices_mapping holds (continuous
  /// instances on a sleep-enabled platform under the race or the joint
  /// refinement) the answer is memoized under the mapping-extended key and
  /// never taken by a kernel; every other instance takes the plain route.
  /// EngineStats reports the crawl / raced / joint split of the fresh
  /// mapping-priced solves.
  [[nodiscard]] std::vector<core::Solution> solve_batch(
      std::span<const MappedInstance> instances,
      const model::EnergyModel& model, const core::SolveOptions& options = {});

  /// Single-instance convenience: goes through the same caches.
  [[nodiscard]] core::Solution solve_one(
      const core::Instance& instance, const model::EnergyModel& model,
      const core::SolveOptions& options = {});

  /// Mapped single-instance convenience: the per-instance route of the
  /// mapped solve_batch.
  [[nodiscard]] core::Solution solve_one(
      const MappedInstance& instance, const model::EnergyModel& model,
      const core::SolveOptions& options = {});

  /// Asynchronous single-instance solve — the serve daemon's per-request
  /// entry point. The solve runs on the engine's pool (inline on the
  /// caller's thread when the engine is single-threaded) through the same
  /// caches as the batch routes, and `done` is invoked exactly once from
  /// whichever thread finished: with the solution on success, or with a
  /// non-null exception_ptr when the instance is poisoned. Unlike
  /// solve_batch there is no cross-request abort — one bad request must
  /// not take down a daemon's other clients.
  void submit(MappedInstance instance, model::EnergyModel model,
              core::SolveOptions options,
              std::function<void(core::Solution, std::exception_ptr)> done);

  /// Worker threads the engine dispatches onto (>= 1).
  [[nodiscard]] std::size_t threads() const noexcept;

  [[nodiscard]] EngineStats stats() const;

  /// Drops the memo and shape caches and resets the counters.
  void clear_caches();

 private:
  /// The one scalar route of every entry point: counts the instance,
  /// checks its deadline, drops `mapping` (which may be null) unless
  /// core::prices_mapping holds, and returns the memo's answer or else
  /// core::solve's, which it attributes by method and stores.
  core::Solution solve_routed(const core::Instance& instance,
                              const sched::Mapping* mapping,
                              const model::EnergyModel& model,
                              const core::SolveOptions& options);
  /// The topology's graph::analyze with its composition plan attached,
  /// cached: one analysis per distinct topology.
  graph::ShapeInfo shape_of(const graph::Digraph& g);
  /// Kernel-aware batch driver shared by both solve_batch overloads. It
  /// scans for candidate runs on the caller's thread (cheap structural
  /// predicates only) and hands each range to one solve_range: a run of
  /// at least kKernelMinRun is planned from its head (reusing the shape
  /// cache's analysis) and kernel-solved in one pass, everything else
  /// goes through solve_routed. One worker solves each run right after
  /// its scan; several cut sweeps into pieces that keep their run's head,
  /// merge the rest into chunks, and drain the units from a shared
  /// cursor. mapping_at(i) is instance i's mapping, or null.
  std::vector<core::Solution> kernel_batch(
      std::size_t n,
      const std::function<const core::Instance&(std::size_t)>& instance_at,
      const std::function<const sched::Mapping*(std::size_t)>& mapping_at,
      const model::EnergyModel& model, const core::SolveOptions& options);

  EngineOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when threads == 1

  SolutionCache memo_;  ///< LRU solution memo, shared across clients

  mutable util::SharedMutex shape_mutex_;
  std::unordered_map<std::string, graph::ShapeInfo> shapes_
      RECLAIM_GUARDED_BY(shape_mutex_);

  std::atomic<std::size_t> batches_{0};
  std::atomic<std::size_t> instances_{0};
  std::atomic<std::size_t> fresh_solves_{0};
  std::atomic<std::size_t> memo_hits_{0};
  std::atomic<std::size_t> shape_hits_{0};
  std::atomic<std::size_t> raced_solves_{0};
  std::atomic<std::size_t> crawl_solves_{0};
  std::atomic<std::size_t> joint_solves_{0};
  std::atomic<std::size_t> joint_improved_{0};
  std::atomic<std::size_t> kernel_solves_{0};
  /// Per-family split of kernel_solves_, indexed by core::KernelFamily.
  std::atomic<std::size_t> kernel_family_[core::kKernelFamilies]{};
};

}  // namespace reclaim::engine
