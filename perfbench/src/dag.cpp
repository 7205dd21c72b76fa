// dag: general-DAG solves through ReclaimEngine::solve_batch, where the
// barrier method (opt::minimize_with_barrier, dense Cholesky per Newton
// step) does nearly all the work and the kernels and net do none.
//
// One cycle is twenty batches of two distinct instances each (one at
// n = 100), in a seeded order: layered DAGs at n = 25 / 50 / 100 and 5x5
// stencils over a deadline-slack grid; exact-leakage solves under static
// power (two barrier runs each); mapped instances with sleep specs through
// the race-to-idle and joint routes; and ~12-task DAGs under Vdd-hopping
// and Discrete models (simplex and branch-and-bound). Each class walks the
// slack grid in order, and layered DAGs take their structures in turn from
// a pool that is the same for every seed, so every seed gets the same mix
// of easy and hard solves; the seed draws weights, exponents and the
// order. The class counts place the median batch inside the cluster of
// n = 25 / stencil / mapped solves and the p90 in the middle of the n = 50
// ones, so neither sits on a boundary between two classes.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "check.hpp"
#include "core/solve.hpp"
#include "engine/reclaim_engine.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"
#include "model/power_model.hpp"
#include "net/wire.hpp"
#include "sched/execution_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace reclaim;

namespace {

constexpr double kSmax = 2.0;

enum class Class {
  kVdd,
  kDiscrete,
  kRace,
  kJoint,
  kStencil,
  kL25,
  kExact,
  kL50,
  kL100
};

/// Cycles per pass: 160 timed calls, so their p90 has 16 samples beyond
/// it, and three or four passes in a 45 s run.
constexpr std::size_t kCycles = 8;
/// Set-ups per pass; setup_s is the median over the run.
constexpr int kSetupsPerPass = 3;
/// Seed of the warm-up batch of every set-up. It does not follow --seed,
/// so setup_s times the same work in every run.
constexpr std::uint64_t kWarmSeed = 0x5e7c0de;

/// Batches of each class in one cycle (20 in all).
/// From the slowest: n = 100 takes the top 5% of the calls and n = 50 the
/// next 10%, so the p90 is the middle of the n = 50 calls.
constexpr std::pair<Class, int> kCycle[] = {
    {Class::kVdd, 2},  {Class::kDiscrete, 2}, {Class::kRace, 2},
    {Class::kJoint, 2}, {Class::kStencil, 1}, {Class::kL25, 6},
    {Class::kExact, 2}, {Class::kL50, 2},     {Class::kL100, 1}};

const char* name_of(Class c) {
  switch (c) {
    case Class::kVdd: return "vdd";
    case Class::kDiscrete: return "discrete";
    case Class::kRace: return "race";
    case Class::kJoint: return "joint";
    case Class::kStencil: return "stencil";
    case Class::kL25: return "layered25";
    case Class::kExact: return "exact25";
    case Class::kL50: return "layered50";
    case Class::kL100: return "layered100";
  }
  return "?";
}

struct Batch {
  Class cls = Class::kL25;
  model::EnergyModel model = model::ContinuousModel{kSmax};
  core::SolveOptions options;
  std::vector<core::Instance> plain;
  std::vector<engine::MappedInstance> mapped;
  /// Mapped classes: the SOLVE a daemon client would send (the task graph
  /// and processor count; the server list-schedules it).
  std::vector<std::string> payloads;

  [[nodiscard]] std::size_t size() const {
    return mapped.empty() ? plain.size() : mapped.size();
  }
  [[nodiscard]] const core::Instance& instance(std::size_t i) const {
    return mapped.empty() ? plain[i] : mapped[i].instance;
  }
  [[nodiscard]] const sched::Mapping* mapping(std::size_t i) const {
    return mapped.empty() ? nullptr : &mapped[i].mapping;
  }
};

class DagGenerator {
 public:
  DagGenerator(util::Rng rng, std::size_t per_batch, bool tiny)
      : rng_(rng), per_batch_(per_batch), tiny_(tiny) {}

  std::vector<Batch> cycle() {
    std::vector<Class> order;
    for (const auto& [cls, count] : kCycle) {
      order.insert(order.end(), count, cls);
    }
    rng_.shuffle(order);
    std::vector<Batch> out;
    for (const Class cls : order) out.push_back(batch(cls));
    return out;
  }

  Batch batch(Class cls) {
    Batch b;
    b.cls = cls;
    const model::ModeSet modes({0.5, 1.0, 1.5, kSmax});
    if (cls == Class::kVdd) b.model = model::VddHoppingModel{modes};
    if (cls == Class::kDiscrete) b.model = model::DiscreteModel{modes};
    if (cls == Class::kExact) b.options.leakage = core::LeakageMode::kExact;
    if (cls == Class::kJoint) b.options.sleep_mode = core::SleepMode::kJoint;
    // One n = 100 solve per batch: two would take half the cycle.
    const std::size_t n = cls == Class::kL100 ? 1 : per_batch_;
    for (std::size_t k = 0; k < n; ++k) {
      if (cls == Class::kRace || cls == Class::kJoint) {
        b.mapped.push_back(mapped_instance(cls, b.payloads));
      } else {
        b.plain.push_back(plain_instance(cls));
      }
    }
    return b;
  }

 private:
  /// The next deadline slack of class `cls`: each class walks the grid.
  double slack(Class cls) {
    static constexpr double kGrid[] = {1.2, 1.5, 2.0, 3.0};
    return kGrid[slack_step_[cls]++ % 4];
  }

  /// A layered DAG with fresh weights on the next of kShapes structures of
  /// its size, in turn. The structures come from kPoolSeed whatever --seed
  /// is: they set how many Newton steps a solve takes, and drawing them per
  /// seed moved the latency tail by 12% from seed to seed.
  graph::Digraph layered(std::size_t layers, std::size_t width) {
    if (tiny_) return graph::make_layered(3, 3, 0.4, rng_);
    std::vector<graph::Digraph>& pool = pools_[{layers, width}];
    if (pool.empty()) {
      util::Rng pool_rng(kPoolSeed + 1000 * layers + width);
      for (int k = 0; k < kShapes; ++k) {
        pool.push_back(graph::make_layered(layers, width, 0.3, pool_rng));
      }
    }
    graph::Digraph g = pool[pool_step_[{layers, width}]++ % kShapes];
    const graph::WeightRange weights;
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      g.set_weight(v, weights.sample(rng_));
    }
    return g;
  }

  core::Instance plain_instance(Class cls) {
    graph::Digraph g;
    switch (cls) {
      case Class::kVdd:
      case Class::kDiscrete: g = graph::make_layered(3, 4, 0.4, rng_); break;
      case Class::kStencil:
        g = tiny_ ? graph::make_stencil(3, 3, rng_)
                  : graph::make_stencil(5, 5, rng_);
        break;
      case Class::kL50: g = layered(5, 10); break;
      case Class::kL100: g = layered(10, 10); break;
      default: g = layered(5, 5); break;
    }
    const double deadline = slack(cls) * core::min_deadline(g, kSmax);
    const double alpha = rng_.uniform(2.5, 3.2);
    if (cls == Class::kExact) {
      return core::make_instance(
          std::move(g), deadline,
          model::StaticPowerLaw(alpha, rng_.uniform(0.2, 0.6)));
    }
    return core::make_instance(std::move(g), deadline, model::PowerLaw(alpha));
  }

  engine::MappedInstance mapped_instance(Class cls,
                                         std::vector<std::string>& payloads) {
    graph::Digraph app = layered(5, 5);
    const auto processors = static_cast<std::size_t>(rng_.uniform_int(2, 4));
    sched::Mapping mapping = sched::list_schedule(app, processors).mapping;
    graph::Digraph exec = sched::build_execution_graph(app, mapping);
    net::SolveRequest request;
    request.deadline = (slack(cls) + 0.5) * core::min_deadline(exec, kSmax);
    request.model = model::ContinuousModel{kSmax};
    request.processors = static_cast<std::uint32_t>(processors);
    request.sleep = model::make_sleep_spec(rng_.uniform(0.3, 1.0), 0.01,
                                           rng_.uniform(0.05, 0.5));
    request.alpha = rng_.uniform(2.5, 3.2);
    request.p_static = 0.05;
    for (std::size_t v = 0; v < app.num_nodes(); ++v) {
      app.set_name(v, "T" + std::to_string(v));
    }
    std::ostringstream text;
    io::write_task_graph(text, app);
    request.graph_text = text.str();
    payloads.push_back(net::encode(net::Message{0, request}));
    core::Instance instance = core::make_instance(
        std::move(exec), request.deadline,
        model::make_power_model(request.alpha, request.p_static,
                                request.sleep));
    return {std::move(instance), std::move(mapping)};
  }

  static constexpr int kShapes = 8;
  static constexpr std::uint64_t kPoolSeed = 0xda9;
  util::Rng rng_;
  std::size_t per_batch_;
  bool tiny_;
  std::map<Class, std::size_t> slack_step_;
  std::map<std::pair<std::size_t, std::size_t>, std::vector<graph::Digraph>>
      pools_;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> pool_step_;
};

std::vector<core::Solution> solve(engine::ReclaimEngine& eng, const Batch& b) {
  if (b.mapped.empty()) {
    return eng.solve_batch(std::span<const core::Instance>(b.plain), b.model,
                           b.options);
  }
  return eng.solve_batch(std::span<const engine::MappedInstance>(b.mapped),
                         b.model, b.options);
}

/// Re-solves the sampled answers (batch, slot) through the reference route
/// on nproc threads and compares bit for bit.
void check_samples(
    const std::vector<Batch>& batches,
    const std::vector<std::vector<core::Solution>>& answers,
    const std::vector<std::pair<std::size_t, std::size_t>>& samples,
    Checker& checker) {
  const Tracer::Scope span("bench.reference");
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < hardware_threads(); ++t) {
    workers.emplace_back([&] {
      for (std::size_t k = next++; k < samples.size(); k = next++) {
        const auto [b, i] = samples[k];
        const Batch& batch = batches[b];
        try {
          const core::Solution want =
              reference_solve(batch.instance(i), batch.mapping(i), batch.model,
                              batch.options);
          checker.same(answers[b][i], want, "dag sample");
        } catch (const std::exception& e) {
          checker.fail(std::string("dag reference: ") + e.what());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
}

}  // namespace

Report run_dag(const Args& args) {
  Report report;
  Checker checker;
  Layers layers;
  const util::Rng root(args.seed);
  const std::size_t per_batch = 2;

  // Inputs, all generated before any timing: the warm-up batch of every
  // set-up, and the cycles every pass solves.
  Batch warm;
  std::vector<Batch> batches;
  Fingerprint fingerprint;
  {
    const Tracer::Scope span("bench.generate");
    warm = DagGenerator(util::Rng(kWarmSeed), per_batch, args.tiny)
               .batch(Class::kL25);
    DagGenerator gen(root.substream(1), per_batch, args.tiny);
    for (std::size_t c = 0; c < (args.tiny ? 1 : kCycles); ++c) {
      for (Batch& b : gen.cycle()) batches.push_back(std::move(b));
    }
    for (const Batch& b : batches) {
      for (std::size_t i = 0; i < b.size(); ++i) {
        fingerprint.instance(b.instance(i));
        if (b.mapping(i)) fingerprint.mapping(*b.mapping(i));
        fingerprint.model(b.model);
      }
    }
  }
  double per_pass = 0.0;
  for (const Batch& b : batches) per_pass += static_cast<double>(b.size());

  // Each pass: the set-ups (a fresh engine and its warm-up batch, the last
  // engine kept), then every batch in order. The first pass's answers are
  // checked in full; every later pass must repeat them bit for bit.
  CallTimes calls(batches.size());
  Timed timed;
  std::vector<std::vector<core::Solution>> first(batches.size());
  util::Rng sample_rng = root.substream(2);
  std::vector<std::pair<std::size_t, std::size_t>> samples;
  std::uint64_t attempted = 0;
  std::size_t passes = 0;
  HostSpeed host(Reference::kDense);
  std::unique_ptr<engine::ReclaimEngine> eng;
  const auto phase_start = Clock::now();
  for (; passes < 2 || seconds_since(phase_start) < args.seconds; ++passes) {
    const std::size_t pass = passes;
    // Declared first, closed last: covers dropping the last engine too.
    const Tracer::Scope pass_span("bench.pass", pass);
    Tracer::get().set_fine(spans_on(pass));
    host.measure();
    for (int k = 0; k < kSetupsPerPass; ++k) {
      eng.reset();
      const Tracer::Scope span("bench.setup", pass);
      const double c0 = process_cpu_s();
      eng = std::make_unique<engine::ReclaimEngine>(timed_engine_options());
      (void)solve(*eng, warm);
      const double s = process_cpu_s() - c0;
      host.measure();
      timed.setup_s.push_back(host.scale(s));
      timed.setup_raw_s.push_back(s);
    }
    for (std::size_t k = 0; k < batches.size(); ++k) {
      const Batch& b = batches[k];
      std::vector<core::Solution> answers;
      {
        // Passes without per-call spans still count as traced time.
        const Tracer::Scope timed_span("bench.timed", pass);
        double cpu_s = 0.0;
        double wall_s = 0.0;
        {
          const Tracer::Scope span("engine.solve_batch",
                                   pass * batches.size() + k, true);
          const auto t0 = Clock::now();
          const double c0 = process_cpu_s();
          answers = solve(*eng, b);
          cpu_s = process_cpu_s() - c0;
          wall_s = seconds_since(t0);
        }
        host.measure();
        calls.add(k, pass, host.scale(cpu_s), wall_s, answers.size());
      }
      const Tracer::Scope span("bench.check", pass);
      attempted += answers.size();
      if (pass > 0) {
        for (std::size_t i = 0; i < b.size(); ++i) {
          checker.same(answers[i], first[k][i], "dag repeat");
        }
        continue;
      }
      for (std::size_t i = 0; i < b.size(); ++i) {
        maybe_plant(args.plant_wrong, answers[i]);
        checker.check(b.instance(i), b.model, answers[i], name_of(b.cls));
        if (sample_rng.bernoulli(1.0 / 12.0)) samples.emplace_back(k, i);
      }
      first[k] = std::move(answers);
    }
  }
  Tracer::get().set_fine(true);
  check_samples(batches, first, samples, checker);

  const std::vector<double> call_ms = calls.ms();
  report.note("fingerprint " + fingerprint.hex() + " over " +
              fmt(per_pass, 0) + " instances in " +
              std::to_string(batches.size()) + " batches; " +
              std::to_string(passes) + " passes");
  std::map<Class, std::vector<double>> class_ms;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    class_ms[batches[k].cls].push_back(call_ms[k]);
  }
  for (const auto& [cls, ms] : class_ms) {
    report.note(std::string("class ") + name_of(cls) + ": " +
                std::to_string(ms.size()) + " batches, median " +
                fmt(median(ms), 2) + " ms");
  }
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
    for (std::size_t k = 0; k < batches.size(); ++k) {
      for (std::size_t i = 0; i < batches[k].size(); ++i) {
        layers.tally(batches[k].instance(i), first[k][i],
                     1e-3 * call_ms[k] /
                         static_cast<double>(batches[k].size()));
      }
    }
  }
  layers.engine_counters(eng->stats());
  // Replay the first two instances of each class, in stream order, through
  // the layers; mapped ones in the wire form a daemon client would send.
  std::vector<std::string> payloads;
  payloads.reserve(batches.size() * per_batch);
  std::vector<ReplayItem> items;
  std::map<Class, int> taken;
  for (const Batch& b : batches) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (taken[b.cls]++ >= 2) continue;
      payloads.push_back(b.mapped.empty()
                             ? solve_payload(b.instance(i), b.model)
                             : b.payloads[i]);
      items.push_back(ReplayItem{
          &b.instance(i), b.mapping(i), &b.model, b.options,
          payloads.back().empty() ? nullptr : &payloads.back()});
    }
  }
  layers.replay(items, checker);
  emit_verdict(checker, attempted, report);
  emit_per_layer(args, layers, calls.span_overhead_pct(), report);
  return report;
}

}  // namespace perfbench
