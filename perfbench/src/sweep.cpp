// sweep: closed-form parameter sweeps through ReclaimEngine::solve_batch,
// as a `reclaim_cli --batch` user or a Pareto-curve script sends them.
//
// Every instance is distinct. Topologies are single tasks, chains, forks,
// out-trees, in-trees, series-parallel graphs and big.LITTLE chains (two
// processors with different leakage and caps); a quarter of the single-task
// and chain runs carry static power. Random trees and SP graphs come from a
// fixed pool of shapes, as a sweep revisits its graphs. Instances of one
// topology and power model arrive in runs of random length, so about half
// of them sit in runs of at least kKernelMinRun and take the batched
// kernels, and the rest take the scalar path (key, memo probe and insert,
// shape cache, closed form). With more distinct instances than the memo
// holds, every memo access is a miss followed by an insert.
#include <limits>
#include <memory>

#include "check.hpp"
#include "core/solve.hpp"
#include "engine/reclaim_engine.hpp"
#include "graph/classify.hpp"
#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "model/power_model.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace reclaim;

namespace {

constexpr std::size_t kBatch = 1024;
/// Timed calls per pass: the p90 of their times has 12 samples beyond it.
constexpr std::size_t kBatches = 120;
constexpr double kSmax = 2.0;
/// Seed of the warm-up batch of every set-up. It does not follow --seed,
/// so setup_s times the same work in every run.
constexpr std::uint64_t kWarmSeed = 0x5e7c0de;

enum Kind {
  kSingle,
  kChain,
  kFork,
  kOutTree,
  kInTree,
  kSp,
  kBigLittle,
  kKinds
};

/// Streams batches of sweep instances: runs of one topology and power
/// model with fresh weights and deadlines per instance.
class SweepGenerator {
 public:
  /// A sweep revisits the same graphs under new weights and deadlines, so
  /// random topologies come from a fixed pool per kind. The pool is drawn
  /// from kPoolSeed, the same for every --seed: the sizes of its shapes
  /// would otherwise move the cost of a pass from seed to seed.
  explicit SweepGenerator(util::Rng rng) : rng_(rng) {
    util::Rng pool_rng(kPoolSeed);
    for (int k = 0; k < kPool; ++k) {
      const auto n = static_cast<std::size_t>(pool_rng.uniform_int(8, 24));
      pool_[kOutTree].push_back(graph::make_random_out_tree(n, pool_rng));
      pool_[kInTree].push_back(graph::make_random_in_tree(n, pool_rng));
      // The generator can return a shape the classifier calls general
      // (barrier territory); redraw until it is series-parallel.
      graph::Digraph sp;
      do {
        sp = graph::make_random_series_parallel(n, pool_rng);
      } while (graph::classify(sp) == graph::GraphShape::kGeneral);
      pool_[kSp].push_back(std::move(sp));
    }
  }

  /// One batch; `long_run[i]` says whether instance i sits in a run of at
  /// least kKernelMinRun (runs never straddle batches).
  std::vector<core::Instance> batch(std::size_t n,
                                    std::vector<bool>& long_run) {
    std::vector<core::Instance> out;
    out.reserve(n);
    long_run.clear();
    while (out.size() < n) {
      // Four in five runs are short (1-3), the rest 4-12: about half of
      // the instances land in runs of at least kKernelMinRun.
      std::size_t length = static_cast<std::size_t>(
          rng_.bernoulli(0.8) ? rng_.uniform_int(1, 3)
                              : rng_.uniform_int(4, 12));
      length = std::min(length, n - out.size());
      new_template();
      for (std::size_t k = 0; k < length; ++k) out.push_back(instance());
      long_run.insert(long_run.end(), length,
                      length >= engine::kKernelMinRun);
    }
    return out;
  }

 private:
  void new_template() {
    Kind kind;
    do {
      kind = static_cast<Kind>(rng_.uniform_int(0, kKinds - 1));
    } while (kind == last_);
    last_ = kind;
    const auto size = [this](int lo, int hi) {
      return static_cast<std::size_t>(rng_.uniform_int(lo, hi));
    };
    platform_.reset();
    switch (kind) {
      case kSingle: shape_ = graph::make_chain({1.0}); break;
      case kChain: shape_ = graph::make_chain(size(4, 16), rng_); break;
      case kFork: shape_ = graph::make_fork(size(3, 12), rng_); break;
      case kOutTree:
      case kInTree:
      case kSp: shape_ = pool_[kind][rng_.uniform_int(0, kPool - 1)]; break;
      case kBigLittle: {
        // One exponent, small leakage on the big core: the common chain
        // speed clears every floor and cap, so the hetero closed form holds.
        shape_ = graph::make_chain(size(4, 12), rng_);
        const double alpha = rng_.uniform(2.2, 3.2);
        platform_ = std::make_unique<model::Platform>(
            std::vector<model::ProcessorSpec>{
                {model::make_power_model(alpha, rng_.uniform(0.02, 0.08)),
                 kSmax},
                {model::make_power_model(alpha, 0.0), 1.0}});
        assignment_.assign(shape_.num_nodes(), 0);
        for (auto& p : assignment_) p = rng_.bernoulli(0.5) ? 1 : 0;
        return;
      }
      case kKinds: break;
    }
    // Static power keeps the closed forms only on serial shapes; elsewhere
    // the s_crit floors send the solve to the barrier, which this workload
    // leaves to `dag`.
    const double alpha = rng_.uniform(2.2, 3.2);
    const bool serial = kind == kSingle || kind == kChain;
    power_ = serial && rng_.bernoulli(0.25)
                 ? model::PowerModel(model::StaticPowerLaw(
                       alpha, rng_.uniform(0.05, 0.5)))
                 : model::PowerModel(model::PowerLaw(alpha));
  }

  core::Instance instance() {
    graph::Digraph g = shape_;
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      if (shape_.weight(v) == 0.0) continue;  // SP junctions stay empty
      g.set_weight(v, rng_.uniform(0.5, 4.0));
    }
    if (platform_) {
      // Common speed W/D inside [0.4, 0.95]: above the big core's s_crit,
      // below the LITTLE core's cap.
      const double deadline = g.total_weight() / rng_.uniform(0.4, 0.95);
      return core::make_instance(std::move(g), deadline, *platform_,
                                 assignment_);
    }
    const double deadline =
        rng_.uniform(1.1, 3.0) * core::min_deadline(g, kSmax);
    return core::make_instance(std::move(g), deadline, power_);
  }

  static constexpr int kPool = 32;
  static constexpr std::uint64_t kPoolSeed = 0x900150;
  util::Rng rng_;
  std::vector<graph::Digraph> pool_[kKinds];
  Kind last_ = kKinds;
  graph::Digraph shape_;
  model::PowerModel power_;
  std::unique_ptr<model::Platform> platform_;
  std::vector<std::size_t> assignment_;
};

/// Wall-clock cost per instance of `part` through a fresh engine with
/// `options`, best of three passes. `kernels` receives the engine's kernel
/// solves.
double best_ns_per_inst(const std::vector<core::Instance>& part,
                        const model::EnergyModel& model,
                        const engine::EngineOptions& options,
                        const char* span_name, std::size_t& kernels) {
  if (part.empty()) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k < 3; ++k) {
    const Tracer::Scope span(span_name);
    engine::ReclaimEngine eng(options);
    const auto t0 = Clock::now();
    (void)eng.solve_batch(std::span<const core::Instance>(part), model);
    best = std::min(best, seconds_since(t0));
    kernels = eng.stats().kernel_solves;
  }
  return 1e9 * best / static_cast<double>(part.size());
}

/// Per-instance cost of the kernel and scalar paths on one thread (the
/// long-run and short-run instances of the first eight batches), and of
/// the same eight batches through an engine with default options: nproc
/// threads, so solve_batch takes the pooled branch of the kernel planner
/// that a daemon or a default-options caller runs.
void kernel_split(const std::vector<std::vector<core::Instance>>& batches,
                  const std::vector<std::vector<bool>>& long_runs,
                  const model::EnergyModel& model, Layers& layers,
                  Report& report) {
  std::vector<core::Instance> kernel_part;
  std::vector<core::Instance> scalar_part;
  std::vector<core::Instance> mixed;
  for (std::size_t b = 0; b < std::min<std::size_t>(8, batches.size()); ++b) {
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      (long_runs[b][i] ? kernel_part : scalar_part).push_back(batches[b][i]);
      mixed.push_back(batches[b][i]);
    }
  }
  std::size_t kernel_solves = 0;
  std::size_t scalar_kernel_solves = 0;
  std::size_t pooled_kernel_solves = 0;
  layers.set("engine.kernel_ns_per_inst",
             best_ns_per_inst(kernel_part, model, timed_engine_options(),
                              "engine.kernel_path", kernel_solves));
  layers.set("engine.scalar_ns_per_inst",
             best_ns_per_inst(scalar_part, model, timed_engine_options(),
                              "engine.scalar_path", scalar_kernel_solves));
  layers.set("engine.pooled_ns_per_inst",
             best_ns_per_inst(mixed, model, engine::EngineOptions{},
                              "engine.pooled_path", pooled_kernel_solves));
  report.note("kernel split: " + std::to_string(kernel_solves) + "/" +
              std::to_string(kernel_part.size()) +
              " long-run instances took the kernels, " +
              std::to_string(scalar_kernel_solves) + "/" +
              std::to_string(scalar_part.size()) +
              " short-run ones did; pooled engine (" +
              std::to_string(hardware_threads()) + " threads): " +
              std::to_string(pooled_kernel_solves) + "/" +
              std::to_string(mixed.size()) + " in kernels");
}

}  // namespace

Report run_sweep(const Args& args) {
  Report report;
  Checker checker;
  Layers layers;
  // Uncapped: a binding global cap sends series-parallel solves to the
  // barrier. Deadlines are still drawn relative to speed kSmax, and the
  // big.LITTLE platforms carry their own per-processor caps.
  const model::EnergyModel model = model::ContinuousModel{};
  const std::size_t batch_size = args.tiny ? 64 : kBatch;
  const std::size_t batch_count = args.tiny ? 4 : kBatches;
  const util::Rng root(args.seed);

  // Inputs, all generated before any timing: the warm-up batch of every
  // set-up, and the batches every pass solves.
  std::vector<core::Instance> warm;
  std::vector<std::vector<core::Instance>> batches(batch_count);
  std::vector<std::vector<bool>> long_runs(batch_count);
  Fingerprint fingerprint;
  {
    const Tracer::Scope span("bench.generate");
    std::vector<bool> warm_runs;
    warm = SweepGenerator(util::Rng(kWarmSeed)).batch(batch_size, warm_runs);
    SweepGenerator gen(root.substream(1));
    for (std::size_t b = 0; b < batch_count; ++b) {
      batches[b] = gen.batch(batch_size, long_runs[b]);
      for (const auto& instance : batches[b]) fingerprint.instance(instance);
    }
  }

  // Each pass: a set-up (a fresh engine and its warm-up batch), then every
  // batch in order. The first pass's answers are checked in full; every
  // later pass must repeat them bit for bit.
  CallTimes calls(batch_count);
  Timed timed;
  std::vector<std::vector<core::Solution>> first(batch_count);
  util::Rng sample_rng = root.substream(2);
  std::vector<const core::Instance*> replay_pool;
  const std::size_t replay_target = args.tiny ? 16 : 256;
  std::uint64_t attempted = 0;
  std::size_t passes = 0;
  HostSpeed host(Reference::kHash);
  std::unique_ptr<engine::ReclaimEngine> eng;
  const auto phase_start = Clock::now();
  for (; passes < 2 || seconds_since(phase_start) < args.seconds; ++passes) {
    const std::size_t pass = passes;
    // Declared first, closed last: covers dropping the last engine too.
    const Tracer::Scope pass_span("bench.pass", pass);
    Tracer::get().set_fine(spans_on(pass));
    eng.reset();
    host.measure();
    {
      const Tracer::Scope span("bench.setup", pass);
      const double c0 = process_cpu_s();
      eng = std::make_unique<engine::ReclaimEngine>(timed_engine_options());
      (void)eng->solve_batch(std::span<const core::Instance>(warm), model);
      const double s = process_cpu_s() - c0;
      host.measure();
      timed.setup_s.push_back(host.scale(s));
      timed.setup_raw_s.push_back(s);
    }
    for (std::size_t b = 0; b < batch_count; ++b) {
      std::vector<core::Solution> answers;
      {
        // Passes without per-call spans still count as traced time.
        const Tracer::Scope timed_span("bench.timed", pass);
        double cpu_s = 0.0;
        double wall_s = 0.0;
        {
          const Tracer::Scope span("engine.solve_batch",
                                   pass * batch_count + b, true);
          const auto t0 = Clock::now();
          const double c0 = process_cpu_s();
          answers = eng->solve_batch(
              std::span<const core::Instance>(batches[b]), model);
          cpu_s = process_cpu_s() - c0;
          wall_s = seconds_since(t0);
        }
        host.measure();
        calls.add(b, pass, host.scale(cpu_s), wall_s, answers.size());
      }
      const Tracer::Scope check_span("bench.check", pass);
      attempted += answers.size();
      if (pass > 0) {
        for (std::size_t i = 0; i < answers.size(); ++i) {
          checker.same(answers[i], first[b][i], "sweep repeat");
        }
        continue;
      }
      for (std::size_t i = 0; i < answers.size(); ++i) {
        core::Solution& answer = answers[i];
        maybe_plant(args.plant_wrong, answer);
        checker.check(batches[b][i], model, answer, "sweep");
        if (sample_rng.bernoulli(1.0 / 64.0)) {
          checker.same(answer, core::solve(batches[b][i], model),
                       "sweep sample");
          if (args.trace && replay_pool.size() < replay_target) {
            replay_pool.push_back(&batches[b][i]);
          }
        }
      }
      first[b] = std::move(answers);
    }
  }
  Tracer::get().set_fine(true);

  const std::vector<double> call_ms = calls.ms();
  const auto per_pass = static_cast<double>(batch_count * batch_size);
  report.note("fingerprint " + fingerprint.hex() + " over " +
              fmt(per_pass, 0) + " instances in " +
              std::to_string(batch_count) + " batches; " +
              std::to_string(passes) + " passes");
  if (!args.trace) {
    emit_verdict(checker, attempted, report);
    timed.latency_ms = call_ms;
    timed.throughput = per_pass / calls.total_s();
    timed.wall_rate = calls.wall_rate();
    timed.slowdown = host.mean_slowdown();
    emit_end_to_end(timed, report);
    return report;
  }
  {
    const Tracer::Scope span("bench.tally");
    for (std::size_t b = 0; b < batch_count; ++b) {
      for (std::size_t i = 0; i < batches[b].size(); ++i) {
        layers.tally(batches[b][i], first[b][i],
                     1e-3 * call_ms[b] / static_cast<double>(batch_size));
      }
    }
  }
  layers.engine_counters(eng->stats());
  kernel_split(batches, long_runs, model, layers, report);
  // Sweep instances also ride the daemon's wire path (net, io, sched
  // stages), as a client would send them.
  std::vector<std::string> payloads;
  payloads.reserve(replay_pool.size());
  std::vector<ReplayItem> items;
  for (const core::Instance* instance : replay_pool) {
    payloads.push_back(solve_payload(*instance, model));
    items.push_back(ReplayItem{
        instance, nullptr, &model, {},
        payloads.back().empty() ? nullptr : &payloads.back()});
  }
  layers.replay(items, checker);
  layers.ping_probe(args.tiny ? 8 : 500);
  emit_verdict(checker, attempted, report);
  emit_per_layer(args, layers, calls.span_overhead_pct(), report);
  return report;
}

}  // namespace perfbench
