#include "engine/reclaim_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <future>
#include <utility>

#include "core/continuous/batch_kernels.hpp"
#include "core/continuous/joint_sleep.hpp"
#include "core/continuous/race_to_idle.hpp"
#include "engine/instance_key.hpp"
#include "util/annotated_mutex.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"

namespace reclaim::engine {

namespace {

/// Chunk size for the shared-cursor scheduler: small enough that a skewed
/// instance cannot strand more than a chunk's worth of work behind it,
/// large enough to amortize the atomic fetch.
std::size_t chunk_size(std::size_t n, std::size_t workers) {
  return std::clamp<std::size_t>(n / (workers * 8), 1, 64);
}

}  // namespace

ReclaimEngine::ReclaimEngine(EngineOptions options)
    : options_(options),
      memo_(CacheLimits{options.memo_capacity, options.memo_bytes}) {
  if (options_.threads != 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
}

ReclaimEngine::~ReclaimEngine() = default;

std::size_t ReclaimEngine::threads() const noexcept {
  return pool_ ? pool_->size() : 1;
}

graph::ShapeInfo ReclaimEngine::shape_of(const graph::Digraph& g) {
  const std::string key = topology_key(g);
  {
    const util::ReadLock lock(shape_mutex_);
    const auto it = shapes_.find(key);
    if (it != shapes_.end()) {
      shape_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  graph::ShapeInfo info = graph::analyze(g);
  // Flatten the composition plan once per topology, so tree/SP solves of
  // a cached shape skip the re-walk entirely.
  info.comp = graph::composition_plan(g, info);
  const util::WriteLock lock(shape_mutex_);
  // Two workers may race to fill the same key; both analyzed the same
  // topology, so keeping the first entry is harmless.
  return shapes_.emplace(key, std::move(info)).first->second;
}

template <class KeyFn, class SolveFn>
core::Solution ReclaimEngine::memoized(const core::Instance& instance,
                                       const KeyFn& key_of,
                                       const SolveFn& solve) {
  instances_.fetch_add(1, std::memory_order_relaxed);
  util::require(instance.deadline > 0.0,
                "ReclaimEngine: instance deadline must be positive");

  std::string key;
  if (options_.memoize) {
    key = key_of();
    if (auto cached = memo_.get(key)) {
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
      return *std::move(cached);
    }
  }

  core::Solution solution = solve();
  fresh_solves_.fetch_add(1, std::memory_order_relaxed);

  if (options_.memoize) {
    // Two workers may race on the same key; both computed the identical
    // deterministic solution, so the cache keeps first-in harmlessly and
    // evicts from the LRU end when the entry/byte caps are exceeded.
    memo_.put(key, solution);
  }
  return solution;
}

core::Solution ReclaimEngine::solve_routed(const core::Instance& instance,
                                           const model::EnergyModel& model,
                                           const core::SolveOptions& options) {
  return memoized(
      instance, [&] { return instance_key(instance, model, options); },
      [&] {
        // The Vdd LP ignores shape: skip analyzing (and caching) the
        // topology.
        if (std::holds_alternative<model::VddHoppingModel>(model)) {
          return core::solve(instance, model, options);
        }
        const graph::ShapeInfo shape = shape_of(instance.exec_graph);
        core::Solution solution = core::solve(instance, model, options, &shape);
        // core::solve answers its closed forms with the kernels: count
        // them, as the long-run driver counts its runs.
        if (const auto family = core::kernel_family_of(solution.method)) {
          kernel_solves_.fetch_add(1, std::memory_order_relaxed);
          kernel_family_[static_cast<std::size_t>(*family)].fetch_add(
              1, std::memory_order_relaxed);
        }
        return solution;
      });
}

core::Solution ReclaimEngine::solve_mapped(const MappedInstance& mapped,
                                           const model::EnergyModel& model,
                                           const core::SolveOptions& options) {
  const auto* continuous = std::get_if<model::ContinuousModel>(&model);
  if (continuous == nullptr || !mapped.instance.platform.has_sleep() ||
      options.sleep_mode == core::SleepMode::kDp) {
    // Without idle charges (or under a mode-based model) the mapping does
    // not change the optimum: share the plain route and its memo entries.
    // The exact DP oracle is mapping-independent too (single processor,
    // one consolidated tail gap), so it shares them as well.
    return solve_routed(mapped.instance, model, options);
  }

  const auto key_of = [&] {
    return mapped_instance_key(mapped.instance, mapped.mapping, model, options);
  };
  return memoized(mapped.instance, key_of, [&] {
    core::RaceToIdleOptions race;
    race.continuous.rel_gap = options.rel_gap;
    race.continuous.s_min = options.continuous_s_min;
    race.continuous.leakage = options.leakage;
    const graph::ShapeInfo shape = shape_of(mapped.instance.exec_graph);
    race.continuous.shape = &shape;

    if (options.sleep_mode == core::SleepMode::kJoint) {
      core::JointSleepOptions joint;
      joint.race = race;
      const core::JointSleepResult result = core::solve_joint_sleep(
          mapped.instance, *continuous, mapped.mapping, joint);
      joint_solves_.fetch_add(1, std::memory_order_relaxed);
      if (result.improved) {
        joint_improved_.fetch_add(1, std::memory_order_relaxed);
      }
      return result.solution;
    }
    const core::RaceToIdleResult result = core::solve_race_to_idle(
        mapped.instance, *continuous, mapped.mapping, race);
    (result.raced ? raced_solves_ : crawl_solves_)
        .fetch_add(1, std::memory_order_relaxed);
    return result.solution;
  });
}

std::vector<core::Solution> ReclaimEngine::run_batch(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, core::Solution*)>&
        solve_range) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::vector<core::Solution> out(n);
  if (n == 0) return out;

  const std::size_t workers = pool_ ? std::min(pool_->size(), n) : 1;
  if (workers <= 1) {
    solve_range(0, n, out.data());
    return out;
  }

  const std::size_t chunk = chunk_size(n, workers);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  util::Mutex error_mutex;

  const auto drain = [&] {
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t lo = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= n) return;
      const std::size_t hi = std::min(n, lo + chunk);
      try {
        solve_range(lo, hi, out.data());
      } catch (...) {
        {
          const util::MutexLock lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) futures.push_back(pool_->submit(drain));
  for (auto& f : futures) f.get();

  if (first_error) std::rethrow_exception(first_error);
  return out;
}

std::vector<core::Solution> ReclaimEngine::kernel_batch(
    std::size_t n,
    const std::function<const core::Instance&(std::size_t)>& instance_at,
    const std::function<bool(std::size_t)>& kernel_ok,
    const model::EnergyModel& model, const core::SolveOptions& options,
    const std::function<core::Solution(std::size_t)>& solve_scalar) {
  // Solves one planned kernel segment [lo, hi) (ptrs holds its instances)
  // in a single pass, bypassing per-instance dispatch and the memo (a run
  // this long is a sweep of distinct instances, cheaper to solve than to
  // probe). An instance the kernel hands back (floor violation, or a cap
  // overrun it will not adjudicate) is re-solved through solve_scalar,
  // which does its own accounting.
  const auto solve_segment = [&](const core::KernelPlan& plan,
                                 const core::Instance* const* ptrs,
                                 std::size_t lo, std::size_t hi,
                                 core::Solution* out) {
    core::solve_kernel_run(plan, ptrs, hi - lo, out + lo);
    std::size_t solved = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      if (out[k].method.empty()) {
        out[k] = solve_scalar(k);
      } else {
        ++solved;
      }
    }
    instances_.fetch_add(solved, std::memory_order_relaxed);
    fresh_solves_.fetch_add(solved, std::memory_order_relaxed);
    kernel_solves_.fetch_add(solved, std::memory_order_relaxed);
    kernel_family_[static_cast<std::size_t>(plan.family)].fetch_add(
        solved, std::memory_order_relaxed);
  };

  // Single-threaded engines take a fused discover/plan/solve pass: each
  // run is kernel-solved right after its compatibility scan, while the
  // instances are still cache-hot — a 20k-instance sweep streams the
  // batch from memory once instead of twice. Semantics match the pooled
  // path below exactly (same predicates, same plan, same hand-back).
  if (!pool_) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    std::vector<core::Solution> out(n);
    auto& arena = util::Arena::scratch();
    const util::Arena::Scope scope(arena);
    auto ptrs = arena.alloc<const core::Instance*>(n);
    std::size_t i = 0;
    while (i < n) {
      if (!kernel_ok(i) || !(instance_at(i).deadline > 0.0)) {
        out[i] = solve_scalar(i);
        ++i;
        continue;
      }
      const core::Instance& head = instance_at(i);
      ptrs[0] = &head;
      std::size_t j = i + 1;
      while (j < n && kernel_ok(j) &&
             core::kernel_run_compatible(head, instance_at(j))) {
        ptrs[j - i] = &instance_at(j);
        ++j;
      }
      std::optional<core::KernelPlan> plan;
      if (j - i >= kKernelMinRun) {
        const graph::ShapeInfo shape = shape_of(head.exec_graph);
        plan = core::plan_kernel(head, model, options, &shape);
      }
      if (plan) {
        solve_segment(*plan, ptrs.data(), i, j, out.data());
      } else {
        for (std::size_t k = i; k < j; ++k) out[k] = solve_scalar(k);
      }
      i = j;
    }
    return out;
  }

  // Pass 1 (caller thread): discover maximal candidate runs with cheap
  // structural predicates only — topology/model equality, no planning.
  // Only runs of at least kKernelMinRun count as sweeps of distinct
  // instances; shorter ones go through solve_scalar (memo, then
  // core::solve).
  struct Run {
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Run> runs;
  std::size_t i = 0;
  while (i < n) {
    if (!kernel_ok(i) || !(instance_at(i).deadline > 0.0)) {
      ++i;
      continue;
    }
    const core::Instance& head = instance_at(i);
    std::size_t j = i + 1;
    while (j < n && kernel_ok(j) &&
           core::kernel_run_compatible(head, instance_at(j))) {
      ++j;
    }
    if (j - i >= kKernelMinRun) runs.push_back({i, j});
    i = j;
  }

  // Pass 2: plan each run from its head, feeding the planner the shape
  // cache's analysis (classification, SP tree, composition plan) so a
  // cached topology is never re-decomposed. Planning a tree/SP run walks
  // the topology, so independent runs are sharded across the pool.
  std::vector<std::optional<core::KernelPlan>> run_plans(runs.size());
  const auto plan_run = [&](std::size_t r) {
    const core::Instance& head = instance_at(runs[r].begin);
    const graph::ShapeInfo shape = shape_of(head.exec_graph);
    run_plans[r] = core::plan_kernel(head, model, options, &shape);
  };
  if (runs.size() > 1) {
    std::exception_ptr plan_error;
    util::Mutex plan_error_mutex;
    std::vector<std::future<void>> futures;
    futures.reserve(runs.size());
    for (std::size_t r = 0; r < runs.size(); ++r) {
      futures.push_back(pool_->submit([&, r] {
        try {
          plan_run(r);
        } catch (...) {
          const util::MutexLock lock(plan_error_mutex);
          if (!plan_error) plan_error = std::current_exception();
        }
      }));
    }
    for (auto& f : futures) f.get();
    if (plan_error) std::rethrow_exception(plan_error);
  } else {
    for (std::size_t r = 0; r < runs.size(); ++r) plan_run(r);
  }

  // plan_of[i] holds (plan index + 1) for kernel-routed instances, 0 for
  // scalar ones; a run the planner rejected stays scalar wholesale.
  std::vector<core::KernelPlan> plans;
  std::vector<std::uint32_t> plan_of(n, 0);
  bool any_kernel = false;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (!run_plans[r]) continue;
    plans.push_back(std::move(*run_plans[r]));
    const auto tag = static_cast<std::uint32_t>(plans.size());
    for (std::size_t k = runs[r].begin; k < runs[r].end; ++k) plan_of[k] = tag;
    any_kernel = true;
  }

  if (!any_kernel) {
    return run_batch(n, [&](std::size_t lo, std::size_t hi,
                            core::Solution* out) {
      for (std::size_t k = lo; k < hi; ++k) out[k] = solve_scalar(k);
    });
  }

  return run_batch(n, [&](std::size_t lo, std::size_t hi,
                          core::Solution* out) {
    auto& arena = util::Arena::scratch();
    const util::Arena::Scope scope(arena);
    auto ptrs = arena.alloc<const core::Instance*>(hi - lo);
    std::size_t k = lo;
    while (k < hi) {
      const std::uint32_t tag = plan_of[k];
      if (tag == 0) {
        out[k] = solve_scalar(k);
        ++k;
        continue;
      }
      // Contiguous segment of one planned run inside this chunk.
      std::size_t seg_end = k;
      while (seg_end < hi && plan_of[seg_end] == tag) {
        ptrs[seg_end - k] = &instance_at(seg_end);
        ++seg_end;
      }
      solve_segment(plans[tag - 1], ptrs.data(), k, seg_end, out);
      k = seg_end;
    }
  });
}

std::vector<core::Solution> ReclaimEngine::solve_batch(
    std::span<const core::Instance> instances, const model::EnergyModel& model,
    const core::SolveOptions& options) {
  const auto solve_scalar = [&](std::size_t i) {
    return solve_routed(instances[i], model, options);
  };
  return kernel_batch(
      instances.size(),
      [&](std::size_t i) -> const core::Instance& { return instances[i]; },
      [](std::size_t) { return true; }, model, options, solve_scalar);
}

std::vector<core::Solution> ReclaimEngine::solve_batch(
    std::span<const MappedInstance> instances, const model::EnergyModel& model,
    const core::SolveOptions& options) {
  const auto solve_scalar = [&](std::size_t i) {
    return solve_mapped(instances[i], model, options);
  };
  return kernel_batch(
      instances.size(),
      [&](std::size_t i) -> const core::Instance& {
        return instances[i].instance;
      },
      [&](std::size_t i) {
        // Sleep-enabled platforms take the race-to-idle route, which the
        // kernels do not model; everything else shares the plain route.
        return !instances[i].instance.platform.has_sleep();
      },
      model, options, solve_scalar);
}

core::Solution ReclaimEngine::solve_one(const core::Instance& instance,
                                        const model::EnergyModel& model,
                                        const core::SolveOptions& options) {
  return solve_routed(instance, model, options);
}

core::Solution ReclaimEngine::solve_one(const MappedInstance& instance,
                                        const model::EnergyModel& model,
                                        const core::SolveOptions& options) {
  return solve_mapped(instance, model, options);
}

void ReclaimEngine::submit(
    MappedInstance instance, model::EnergyModel model, core::SolveOptions options,
    std::function<void(core::Solution, std::exception_ptr)> done) {
  // Owning copies by value: the request outlives the caller's stack frame
  // (a daemon's reader thread has long moved on when a worker picks this
  // up).
  auto run = [this, instance = std::move(instance), model = std::move(model),
              options, done = std::move(done)] {
    try {
      core::Solution solution = solve_mapped(instance, model, options);
      done(std::move(solution), nullptr);
    } catch (...) {
      done(core::Solution{}, std::current_exception());
    }
  };
  if (pool_) {
    // Fire-and-forget: completion is reported through `done`, never
    // through the future (which would just re-wrap the exception).
    (void)pool_->submit(std::move(run));
  } else {
    run();
  }
}

EngineStats ReclaimEngine::stats() const {
  // Safe to call mid-batch from any thread: the counters are relaxed
  // atomics and the memo fields come from the cache's own lock, so the
  // daemon's STATS endpoint samples a running engine live.
  EngineStats s;
  s.batches = batches_.load(std::memory_order_relaxed);
  s.instances = instances_.load(std::memory_order_relaxed);
  s.fresh_solves = fresh_solves_.load(std::memory_order_relaxed);
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  s.shape_hits = shape_hits_.load(std::memory_order_relaxed);
  s.raced_solves = raced_solves_.load(std::memory_order_relaxed);
  s.crawl_solves = crawl_solves_.load(std::memory_order_relaxed);
  s.joint_solves = joint_solves_.load(std::memory_order_relaxed);
  s.joint_improved = joint_improved_.load(std::memory_order_relaxed);
  s.kernel_solves = kernel_solves_.load(std::memory_order_relaxed);
  const auto family = [&](core::KernelFamily f) {
    return kernel_family_[static_cast<std::size_t>(f)].load(
        std::memory_order_relaxed);
  };
  s.kernel_single = family(core::KernelFamily::kSingle);
  s.kernel_chain = family(core::KernelFamily::kChain);
  s.kernel_fork = family(core::KernelFamily::kFork);
  s.kernel_tree = family(core::KernelFamily::kTree);
  s.kernel_sp = family(core::KernelFamily::kSp);
  const CacheStats memo = memo_.stats();
  s.memo_entries = memo.entries;
  s.memo_bytes = memo.bytes;
  s.memo_evictions = memo.evictions;
  s.memo_oldest_age_s = memo.oldest_age_s;
  {
    const util::ReadLock lock(shape_mutex_);
    s.shape_entries = shapes_.size();
  }
  return s;
}

void ReclaimEngine::clear_caches() {
  const util::WriteLock shape_lock(shape_mutex_);
  memo_.clear();
  shapes_.clear();
  batches_.store(0);
  instances_.store(0);
  fresh_solves_.store(0);
  memo_hits_.store(0);
  shape_hits_.store(0);
  raced_solves_.store(0);
  crawl_solves_.store(0);
  joint_solves_.store(0);
  joint_improved_.store(0);
  kernel_solves_.store(0);
  for (auto& counter : kernel_family_) counter.store(0);
}

}  // namespace reclaim::engine
