#include "engine/reclaim_engine.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <optional>
#include <utility>

#include "core/continuous/batch_kernels.hpp"
#include "engine/instance_key.hpp"
#include "util/annotated_mutex.hpp"
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

core::Solution ReclaimEngine::solve_routed(const core::Instance& instance,
                                           const sched::Mapping* mapping,
                                           const model::EnergyModel& model,
                                           const core::SolveOptions& options) {
  instances_.fetch_add(1, std::memory_order_relaxed);
  util::require(instance.deadline > 0.0,
                "ReclaimEngine: instance deadline must be positive");
  // Where the mapping cannot change the answer, drop it: the instance
  // shares the plain route's memo entries.
  if (mapping != nullptr && !core::prices_mapping(instance, model, options)) {
    mapping = nullptr;
  }

  // The key is encoded into this thread's buffer, reused across solves
  // (no solve on this thread can start before this one stores its key),
  // and hashed once for both the probe and the store.
  thread_local std::string key;
  std::uint64_t hash = 0;
  if (options_.memoize) {
    encode_instance_key(key, instance, mapping, model, options);
    hash = SolutionCache::hash_of(key);
    if (auto cached = memo_.get(key, hash)) {
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
      return *std::move(cached);
    }
  }

  core::Solution solution;
  // The Vdd LP ignores shape: skip analyzing (and caching) the topology.
  if (std::holds_alternative<model::VddHoppingModel>(model)) {
    solution = core::solve(instance, model, options);
  } else {
    const graph::ShapeInfo shape = shape_of(instance.exec_graph);
    solution = core::solve(instance, model, options, &shape, mapping);
  }
  fresh_solves_.fetch_add(1, std::memory_order_relaxed);

  // core::solve answers its closed forms with the kernels: count them, as
  // the long-run driver counts its runs. A mapped answer is attributed to
  // its refiner by the method that ran.
  if (const auto family = core::kernel_family_of(solution.method)) {
    kernel_solves_.fetch_add(1, std::memory_order_relaxed);
    kernel_family_[static_cast<std::size_t>(*family)].fetch_add(
        1, std::memory_order_relaxed);
  }
  if (mapping != nullptr) {
    if (options.sleep_mode == core::SleepMode::kJoint) {
      joint_solves_.fetch_add(1, std::memory_order_relaxed);
      if (solution.method == "joint-sleep") {
        joint_improved_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      (solution.method == "race-to-idle" ? raced_solves_ : crawl_solves_)
          .fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (options_.memoize) {
    // Two workers may race on the same key; both computed the identical
    // deterministic solution, so the cache keeps first-in harmlessly and
    // evicts from the LRU end when the entry/byte caps are exceeded.
    memo_.put(key, hash, solution);
  }
  return solution;
}

std::vector<core::Solution> ReclaimEngine::kernel_batch(
    std::size_t n,
    const std::function<const core::Instance&(std::size_t)>& instance_at,
    const std::function<const sched::Mapping*(std::size_t)>& mapping_at,
    const model::EnergyModel& model, const core::SolveOptions& options) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::vector<core::Solution> out(n);
  const auto solve_scalar = [&](std::size_t i) {
    return solve_routed(instance_at(i), mapping_at(i), model, options);
  };
  // Asked of every instance, not only of a run's head: run compatibility
  // compares only the processors tasks use, so a sleep spec elsewhere on
  // the platform would otherwise ride along behind a no-sleep head. The
  // kernels price no idle gaps either: an instance whose mapping can
  // change its answer is no kernel candidate.
  const auto kernel_ok = [&](std::size_t i) {
    const core::Instance& instance = instance_at(i);
    return core::kernel_eligible(instance, model, options) &&
           (mapping_at(i) == nullptr ||
            !core::prices_mapping(instance, model, options));
  };
  // One past the maximal candidate run starting at i (cheap structural
  // predicates only — topology/model equality, no planning), or i itself
  // when instance i is no candidate. The run's instances are recorded in
  // `ptrs` during the scan.
  const auto run_end = [&](std::size_t i, const core::Instance** ptrs) {
    if (!kernel_ok(i) || !(instance_at(i).deadline > 0.0)) return i;
    const core::Instance& head = instance_at(i);
    ptrs[0] = &head;
    std::size_t j = i + 1;
    while (j < n && kernel_ok(j)) {
      const core::Instance& next = instance_at(j);
      if (!core::kernel_run_compatible(head, next)) break;
      ptrs[j - i] = &next;
      ++j;
    }
    return j;
  };
  // Solves [lo, hi), whose instances `ptrs` holds. With a head, the range
  // is (a piece of) a run of at least kKernelMinRun — a sweep of distinct
  // instances, cheaper to solve than to probe: it is planned from the
  // run's head, feeding the planner the shape cache's analysis, and
  // solved in one pass that bypasses per-instance dispatch and the memo.
  // An instance the kernel hands back (floor violation, or a cap overrun
  // it will not adjudicate), a run the planner rejects and a range
  // without a head go through solve_scalar, which does its own accounting.
  const auto solve_range = [&](const core::Instance* head,
                               const core::Instance* const* ptrs,
                               std::size_t lo, std::size_t hi) {
    std::optional<core::KernelPlan> plan;
    graph::ShapeInfo shape;
    if (head != nullptr) {
      shape = shape_of(head->exec_graph);
      plan = core::plan_kernel(*head, model, options, &shape);
    }
    if (!plan) {
      for (std::size_t k = lo; k < hi; ++k) out[k] = solve_scalar(k);
      return;
    }
    core::solve_kernel_run(*plan, ptrs, hi - lo, out.data() + lo);
    // Under kExact the planner's test reads which tasks carry weight, a
    // free axis of the run: it is asked of every instance, not only of
    // the head.
    const auto exact_a_priori = [&](std::size_t k) {
      return options.leakage != core::LeakageMode::kExact ||
             core::reduction_exact_a_priori(
                 instance_at(k), std::get<model::ContinuousModel>(model),
                 shape.shape);
    };
    std::size_t solved = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      if (out[k].method.empty() || !exact_a_priori(k)) {
        out[k] = solve_scalar(k);
      } else {
        ++solved;
      }
    }
    instances_.fetch_add(solved, std::memory_order_relaxed);
    fresh_solves_.fetch_add(solved, std::memory_order_relaxed);
    kernel_solves_.fetch_add(solved, std::memory_order_relaxed);
    kernel_family_[static_cast<std::size_t>(plan->family)].fetch_add(
        solved, std::memory_order_relaxed);
  };

  std::vector<const core::Instance*> ptrs(n);
  const std::size_t workers = pool_ ? std::min(pool_->size(), n) : 1;
  // One worker takes the fused pass: each run is solved right after its
  // compatibility scan, while the instances are still cache-hot — a
  // 20k-instance sweep streams the batch from memory once, not twice.
  if (workers <= 1) {
    for (std::size_t i = 0; i < n;) {
      const std::size_t j = run_end(i, ptrs.data());
      const std::size_t end = std::max(j, i + 1);
      const core::Instance* head = j - i >= kKernelMinRun ? ptrs[0] : nullptr;
      solve_range(head, ptrs.data(), i, end);
      i = end;
    }
    return out;
  }

  // Several workers: the same scan, on the caller's thread, cuts the
  // batch into units. A sweep splits into pieces of at most `chunk` that
  // each keep the run's head, so every piece is kernel-solved as the
  // fused pass solves the whole run and routing never depends on the
  // thread count; the instances between sweeps merge into units of up to
  // `chunk`.
  struct Unit {
    const core::Instance* head;  ///< the run's head; null outside sweeps
    std::size_t lo;
    std::size_t hi;
  };
  const std::size_t chunk = chunk_size(n, workers);
  std::vector<Unit> units;
  for (std::size_t i = 0; i < n;) {
    const std::size_t j = run_end(i, ptrs.data() + i);
    if (j - i >= kKernelMinRun) {
      for (std::size_t lo = i; lo < j; lo += chunk) {
        units.push_back({ptrs[i], lo, std::min(j, lo + chunk)});
      }
      i = j;
      continue;
    }
    for (const std::size_t end = std::max(j, i + 1); i < end; ++i) {
      if (units.empty() || units.back().head != nullptr ||
          units.back().hi - units.back().lo == chunk) {
        units.push_back({nullptr, i, i});
      }
      ++units.back().hi;
    }
  }

  // Workers pull units from a shared cursor, so skewed instances cannot
  // strand a thread. The first exception aborts the batch and is rethrown
  // on the caller's thread.
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  util::Mutex error_mutex;
  const auto drain = [&] {
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t u = cursor.fetch_add(1, std::memory_order_relaxed);
      if (u >= units.size()) return;
      const Unit& unit = units[u];
      try {
        solve_range(unit.head, ptrs.data() + unit.lo, unit.lo, unit.hi);
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
  for (std::size_t w = 0; w < std::min(workers, units.size()); ++w) {
    futures.push_back(pool_->submit(drain));
  }
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

std::vector<core::Solution> ReclaimEngine::solve_batch(
    std::span<const core::Instance> instances, const model::EnergyModel& model,
    const core::SolveOptions& options) {
  return kernel_batch(
      instances.size(),
      [&](std::size_t i) -> const core::Instance& { return instances[i]; },
      [](std::size_t) -> const sched::Mapping* { return nullptr; }, model,
      options);
}

std::vector<core::Solution> ReclaimEngine::solve_batch(
    std::span<const MappedInstance> instances, const model::EnergyModel& model,
    const core::SolveOptions& options) {
  return kernel_batch(
      instances.size(),
      [&](std::size_t i) -> const core::Instance& {
        return instances[i].instance;
      },
      [&](std::size_t i) { return &instances[i].mapping; }, model, options);
}

core::Solution ReclaimEngine::solve_one(const core::Instance& instance,
                                        const model::EnergyModel& model,
                                        const core::SolveOptions& options) {
  return solve_routed(instance, nullptr, model, options);
}

core::Solution ReclaimEngine::solve_one(const MappedInstance& instance,
                                        const model::EnergyModel& model,
                                        const core::SolveOptions& options) {
  return solve_routed(instance.instance, &instance.mapping, model, options);
}

void ReclaimEngine::submit(
    MappedInstance instance, model::EnergyModel model,
    core::SolveOptions options,
    std::function<void(core::Solution, std::exception_ptr)> done) {
  // Owning copies by value: the request outlives the caller's stack frame
  // (a daemon's reader thread has long moved on when a worker picks this
  // up).
  auto run = [this, instance = std::move(instance), model = std::move(model),
              options, done = std::move(done)] {
    try {
      core::Solution solution =
          solve_routed(instance.instance, &instance.mapping, model, options);
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
