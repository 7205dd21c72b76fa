#include "layers.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <future>
#include <set>
#include <sstream>
#include <thread>
#include <variant>

#include "engine/instance_key.hpp"
#include "graph/classify.hpp"
#include "graph/sp_tree.hpp"
#include "io/graph_io.hpp"
#include "la/cholesky.hpp"
#include "model/power_model.hpp"
#include "net/client.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "sched/execution_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace reclaim;

namespace {

const char* const kBuckets[] = {"n25", "n50", "n100"};

/// Static span name "core.<family>" (spans keep a const char*).
const char* core_span(const std::string& family) {
  static const std::map<std::string, std::string> names = [] {
    std::map<std::string, std::string> out;
    for (const auto& f : families()) out[f] = "core." + f;
    out[""] = "core.other";
    return out;
  }();
  return names.at(family).c_str();
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::uint64_t item_fingerprint(const ReplayItem& item) {
  Fingerprint fp;
  fp.instance(*item.instance);
  if (item.mapping != nullptr) fp.mapping(*item.mapping);
  fp.model(*item.model);
  fp.u64(static_cast<std::uint64_t>(item.options.leakage));
  fp.u64(static_cast<std::uint64_t>(item.options.sleep_mode));
  return fp.value();
}

}  // namespace

std::string solve_payload(const core::Instance& instance,
                          const model::EnergyModel& model) {
  if (!instance.assignment.empty() || instance.platform.size() != 1) return {};
  graph::Digraph app = instance.exec_graph;
  std::vector<std::vector<graph::NodeId>> lists(app.num_nodes());
  for (std::size_t v = 0; v < app.num_nodes(); ++v) {
    // The text format needs unique task names.
    app.set_name(v, "T" + std::to_string(v));
    lists[v] = {v};
  }
  net::SolveRequest request;
  request.deadline = instance.deadline;
  request.model = model;
  request.alpha = instance.platform.power(0).alpha();
  request.p_static = instance.platform.power(0).p_static();
  request.sleep = instance.platform.power(0).sleep();
  std::ostringstream graph_text;
  io::write_task_graph(graph_text, app);
  request.graph_text = graph_text.str();
  std::ostringstream mapping_text;
  io::write_mapping(mapping_text, sched::Mapping(std::move(lists)), app);
  request.mapping_text = mapping_text.str();
  return net::encode(net::Message{0, request});
}

engine::MappedInstance rebuild_request(const net::SolveRequest& request) {
  graph::Digraph app;
  {
    const Tracer::Scope span("io.parse_graph");
    app = io::read_task_graph_from_string(request.graph_text);
  }
  std::optional<model::Platform> platform;
  if (!request.platform.empty()) platform.emplace(request.platform);
  const std::size_t processors =
      platform ? platform->size() : request.processors;
  sched::Mapping mapping(1);
  if (!request.mapping_text.empty()) {
    const Tracer::Scope span("io.parse_mapping");
    mapping = io::read_mapping_from_string(request.mapping_text, app);
  } else {
    const Tracer::Scope span("sched.list_schedule");
    mapping = sched::list_schedule(app, processors).mapping;
  }
  graph::Digraph exec;
  {
    const Tracer::Scope span("sched.exec_graph");
    exec = sched::build_execution_graph(app, mapping);
  }
  const Tracer::Scope span("core.make_instance");
  core::Instance instance =
      platform ? core::make_instance(std::move(exec), request.deadline,
                                     std::move(*platform), mapping)
               : core::make_instance(
                     std::move(exec), request.deadline,
                     model::make_power_model(request.alpha, request.p_static,
                                             request.sleep));
  return {std::move(instance), std::move(mapping)};
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"net.decode_us", "us"},
        {"net.encode_us", "us"},
        {"net.frame_write_us", "us"},
        {"net.request_bytes", "bytes"},
        {"net.reply_bytes", "bytes"},
        {"net.ping_rtt_us", "us"},
        {"io.parse_graph_us", "us"},
        {"io.parse_mapping_us", "us"},
        {"sched.list_schedule_us", "us"},
        {"sched.exec_graph_us", "us"},
        {"engine.key_us", "us"},
        {"engine.key_bytes", "bytes"},
        {"engine.memo_hit_rate", "fraction"},
        {"engine.memo_hit_us", "us"},
        {"engine.miss_overhead_us", "us"},
        {"engine.memo_entries", "count"},
        {"engine.memo_bytes", "bytes"},
        {"engine.memo_evictions", "count"},
        {"engine.shape_hit_rate", "fraction"},
        {"engine.kernel_share", "fraction"},
        {"engine.kernel_ns_per_inst", "ns"},
        {"engine.scalar_ns_per_inst", "ns"},
        {"engine.pooled_ns_per_inst", "ns"},
        {"engine.submit_wait_us.p50", "us"},
        {"engine.submit_wait_us.tail", "us"},
        {"engine.raced_share", "fraction"},
        {"engine.joint_improved_share", "fraction"},
        {"graph.classify_us", "us"},
        {"graph.sp_decompose_us", "us"},
    };
    for (const auto& f : families()) {
      c.emplace_back("core." + f + ".solves", "count");
      c.emplace_back("core." + f + ".us", "us");
      c.emplace_back("core." + f + ".iterations", "count");
    }
    for (const char* b : kBuckets) {
      c.emplace_back(std::string("opt.barrier.newton_steps.") + b, "count");
    }
    for (const char* b : kBuckets) {
      c.emplace_back(std::string("opt.barrier.us_per_step.") + b, "us");
    }
    c.emplace_back("opt.simplex.pivots", "count");
    c.emplace_back("la.cholesky_us.d50", "us");
    c.emplace_back("la.cholesky_us.d100", "us");
    c.emplace_back("la.cholesky_us.d200", "us");
    c.emplace_back("la.factor_share.n100", "fraction");
    c.emplace_back("bench.generator_lag_ms", "ms");
    c.emplace_back("bench.trace_overhead_pct", "%");
    return c;
  }();
  return catalog;
}

void Layers::tally(const core::Instance& instance,
                   const core::Solution& solution, double seconds) {
  const std::string family = family_of(solution.method);
  const auto iterations = static_cast<double>(solution.iterations);
  const std::lock_guard<std::mutex> lock(mutex_);
  FamilyTally& f = families_[family];
  ++f.solves;
  f.iterations += iterations;
  f.seconds += seconds;
  if (solution.method == "numeric-barrier") {
    const std::string bucket = size_bucket(instance.exec_graph.num_nodes());
    if (!bucket.empty()) {
      ++newton_[bucket].solves;
      newton_[bucket].iterations += iterations;
    }
  }
}

void Layers::engine_counters(const engine::EngineStats& s) {
  const auto ratio = [](std::size_t a, std::size_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  values_["engine.memo_hit_rate"] = ratio(s.memo_hits, s.instances);
  values_["engine.memo_entries"] = static_cast<double>(s.memo_entries);
  values_["engine.memo_bytes"] = static_cast<double>(s.memo_bytes);
  values_["engine.memo_evictions"] = static_cast<double>(s.memo_evictions);
  values_["engine.shape_hit_rate"] =
      ratio(s.shape_hits, s.shape_hits + s.shape_entries);
  values_["engine.kernel_share"] = ratio(s.kernel_solves, s.instances);
  values_["engine.raced_share"] =
      ratio(s.raced_solves, s.raced_solves + s.crawl_solves);
  values_["engine.joint_improved_share"] =
      ratio(s.joint_improved, s.joint_solves);
}

void Layers::replay(const std::vector<ReplayItem>& items, Checker& checker) {
  const Tracer::Scope replay_span("bench.replay");
  engine::EngineOptions single;
  single.threads = 1;
  engine::ReclaimEngine memo_engine(single);
  engine::EngineOptions pooled;
  pooled.threads = hardware_threads();
  engine::ReclaimEngine pool_engine(pooled);

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe() failed");

  std::vector<double> key_bytes;
  std::vector<double> request_bytes;
  std::vector<double> reply_bytes;
  std::vector<double> miss_overhead;
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ReplayItem& item = items[i];
    if (!seen.insert(item_fingerprint(item)).second) continue;
    const Tracer::Scope item_span("bench.replay_item", i + 1);

    engine::MappedInstance mapped{*item.instance,
                                  item.mapping ? *item.mapping
                                               : sched::Mapping(1)};
    if (item.payload != nullptr) {
      request_bytes.push_back(static_cast<double>(item.payload->size()));
      net::Message message;
      {
        const Tracer::Scope span("net.decode");
        message = net::decode(*item.payload);
      }
      mapped = rebuild_request(std::get<net::SolveRequest>(message.body));
      Fingerprint a;
      Fingerprint b;
      a.instance(mapped.instance);
      b.instance(*item.instance);
      if (a.value() != b.value()) {
        checker.fail("replay: rebuilt instance differs from the generated one");
        continue;
      }
    }
    const core::Instance& instance = mapped.instance;
    const sched::Mapping* mapping = item.mapping ? &mapped.mapping : nullptr;
    const bool sleep_route =
        mapping != nullptr && instance.platform.has_sleep() &&
        std::holds_alternative<model::ContinuousModel>(*item.model);

    graph::GraphShape shape;
    {
      const Tracer::Scope span("graph.classify");
      shape = graph::classify(instance.exec_graph);
    }
    if (shape == graph::GraphShape::kSeriesParallel) {
      const Tracer::Scope span("graph.sp_decompose");
      (void)graph::sp_decompose(instance.exec_graph);
    }
    {
      const Tracer::Scope span("engine.key");
      const std::string key =
          sleep_route ? engine::mapped_instance_key(instance, *mapping,
                                                    *item.model, item.options)
                      : engine::instance_key(instance, *item.model,
                                             item.options);
      key_bytes.push_back(static_cast<double>(key.size()));
    }

    const auto ref_start = Clock::now();
    const core::Solution reference =
        reference_solve(instance, mapping, *item.model, item.options);
    const auto ref_end = Clock::now();
    const std::string family = family_of(reference.method);
    Tracer::get().record(core_span(family), i + 1, ref_start, ref_end,
                         Tracer::get().current());
    const double ref_us = us(ref_start, ref_end);
    if (reference.method == "numeric-barrier") {
      const std::string bucket = size_bucket(instance.exec_graph.num_nodes());
      if (!bucket.empty()) {
        replay_barrier_[bucket].first += ref_us;
        replay_barrier_[bucket].second +=
            static_cast<double>(reference.iterations);
      }
    }
    checker.check(instance, *item.model, reference, "replay reference");

    core::Solution miss;
    core::Solution hit;
    const auto miss_start = Clock::now();
    {
      const Tracer::Scope span("engine.solve_one.miss");
      miss = mapping ? memo_engine.solve_one(mapped, *item.model, item.options)
                     : memo_engine.solve_one(instance, *item.model,
                                             item.options);
    }
    const double miss_us = us(miss_start, Clock::now());
    miss_overhead.push_back(miss_us - ref_us);
    const std::size_t hits_before = memo_engine.stats().memo_hits;
    const auto hit_start = Clock::now();
    {
      const Tracer::Scope span("engine.solve_one.hit");
      hit = mapping ? memo_engine.solve_one(mapped, *item.model, item.options)
                    : memo_engine.solve_one(instance, *item.model,
                                            item.options);
    }
    const double hit_us = us(hit_start, Clock::now());
    if (memo_engine.stats().memo_hits != hits_before + 1) {
      checker.fail("replay: repeated solve_one was not a memo hit");
    }
    checker.same(miss, reference, "replay solve_one miss");
    checker.same(hit, reference, "replay solve_one hit");

    {
      // Submit -> callback of a memo hit on a pooled engine, minus the same
      // hit through solve_one: the pool's hand-off cost. (Against a missed
      // solve, the solve's own jitter outweighed the hand-off on barrier
      // instances.) The first submit fills the pool engine's memo.
      const Tracer::Scope span("engine.submit");
      const auto submit_us = [&] {
        std::promise<Clock::time_point> done;
        auto finished = done.get_future();
        const auto submitted = Clock::now();
        pool_engine.submit(mapped, *item.model, item.options,
                           [&done](core::Solution, std::exception_ptr) {
                             done.set_value(Clock::now());
                           });
        return us(submitted, finished.get());
      };
      (void)submit_us();  // fills the pool engine's memo
      submit_wait_us_.push_back(submit_us() - hit_us);
    }

    if (item.payload != nullptr) {
      std::string reply;
      {
        const Tracer::Scope span("net.encode");
        reply = net::encode(net::Message{i + 1, net::SolveResult{miss}});
      }
      reply_bytes.push_back(static_cast<double>(reply.size()));
      {
        const Tracer::Scope span("net.frame_write");
        net::write_frame(pipe_fds[1], reply);
      }
      const Tracer::Scope span("bench.drain");
      std::string back;
      (void)net::read_frame(pipe_fds[0], back);
    }
  }
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);

  values_["engine.key_bytes"] = mean(key_bytes);
  values_["engine.miss_overhead_us"] = median(miss_overhead);
  values_["net.request_bytes"] = mean(request_bytes);
  values_["net.reply_bytes"] = mean(reply_bytes);
}

void Layers::cholesky_probe(std::uint64_t seed, bool tiny) {
  util::Rng rng(seed ^ 0x5eedc401e5ULL);
  for (const std::size_t d : {50u, 100u, 200u}) {
    la::Matrix a(d, d);
    for (std::size_t r = 0; r < d; ++r) {
      for (std::size_t c = 0; c < d; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    }
    la::Matrix spd = a.multiply(a.transposed());
    for (std::size_t r = 0; r < d; ++r) spd(r, r) += static_cast<double>(d);
    const std::size_t reps = tiny ? 2 : 40000 / d;
    std::vector<double> times;
    for (std::size_t k = 0; k < reps; ++k) {
      const Tracer::Scope span("la.cholesky");
      const auto t0 = Clock::now();
      const la::Cholesky factor(spd);
      times.push_back(us(t0, Clock::now()));
      if (!std::isfinite(factor.log_det())) {
        throw std::runtime_error("cholesky probe: non-finite factor");
      }
    }
    values_["la.cholesky_us.d" + std::to_string(d)] = median(times);
  }
}

void Layers::ping_probe(std::size_t pings) {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair() failed");
  }
  net::ServerOptions options;
  options.engine.threads = 1;
  net::ReclaimServer server(options);
  std::thread serving([&] { server.serve_stream(fds[0], fds[0]); });
  std::vector<double> rtts;
  {
    const Tracer::Scope span("net.ping");
    auto client = net::ServeClient::from_fds(fds[1], fds[1]);
    for (std::size_t k = 0; k < pings; ++k) {
      const auto t0 = Clock::now();
      (void)client.send_ping();
      const auto reply = client.read_message();
      if (!reply || !std::holds_alternative<net::Pong>(reply->body)) break;
      rtts.push_back(us(t0, Clock::now()));
    }
    client.finish_sending();
  }
  serving.join();
  ::close(fds[0]);
  ::close(fds[1]);
  values_["net.ping_rtt_us"] = median(rtts);
}

void Layers::emit(Report& report) {
  const auto spans = Tracer::get().by_name();
  const auto span_us = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.mean_self_us();
  };
  values_["net.decode_us"] = span_us("net.decode");
  values_["net.encode_us"] = span_us("net.encode");
  values_["net.frame_write_us"] = span_us("net.frame_write");
  values_["io.parse_graph_us"] = span_us("io.parse_graph");
  values_["io.parse_mapping_us"] = span_us("io.parse_mapping");
  values_["sched.list_schedule_us"] = span_us("sched.list_schedule");
  values_["sched.exec_graph_us"] = span_us("sched.exec_graph");
  values_["graph.classify_us"] = span_us("graph.classify");
  values_["graph.sp_decompose_us"] = span_us("graph.sp_decompose");
  values_["engine.key_us"] = span_us("engine.key");
  values_["engine.memo_hit_us"] = span_us("engine.solve_one.hit");
  {
    std::string label;
    values_["engine.submit_wait_us.p50"] = quantile(submit_wait_us_, 0.5);
    values_["engine.submit_wait_us.tail"] =
        supported_tail(submit_wait_us_, &label);
    report.note("engine.submit_wait_us.tail is " + label + " of " +
                std::to_string(submit_wait_us_.size()) + " submits");
  }
  double timed_s = 0.0;
  for (const auto& [f, t] : families_) timed_s += t.seconds;
  for (const auto& [f, t] : families_) {
    if (timed_s > 0.0 && t.seconds > 0.0) {
      report.note("timed call time by family " + (f.empty() ? "other" : f) +
                  ": " + fmt(100.0 * t.seconds / timed_s, 1) + "%");
    }
  }
  for (const auto& f : families()) {
    const auto it = families_.find(f);
    const FamilyTally t = it == families_.end() ? FamilyTally{} : it->second;
    values_["core." + f + ".solves"] = static_cast<double>(t.solves);
    values_["core." + f + ".iterations"] =
        t.solves == 0 ? 0.0 : t.iterations / static_cast<double>(t.solves);
    values_["core." + f + ".us"] = span_us(core_span(f));
  }
  for (const char* b : kBuckets) {
    const auto it = newton_.find(b);
    values_[std::string("opt.barrier.newton_steps.") + b] =
        it == newton_.end() || it->second.solves == 0
            ? 0.0
            : it->second.iterations / static_cast<double>(it->second.solves);
    const auto r = replay_barrier_.find(b);
    values_[std::string("opt.barrier.us_per_step.") + b] =
        r == replay_barrier_.end() || r->second.second == 0.0
            ? 0.0
            : r->second.first / r->second.second;
  }
  values_["opt.simplex.pivots"] = values_["core.vdd-lp.iterations"];
  {
    // Computed, not measured: Newton steps x one dense factorization of
    // the KKT size, over the measured solve time.
    const auto r = replay_barrier_.find("n100");
    values_["la.factor_share.n100"] =
        r == replay_barrier_.end() || r->second.first == 0.0
            ? 0.0
            : r->second.second * values_["la.cholesky_us.d200"] /
                  r->second.first;
  }
  for (const auto& [name, unit] : per_layer_catalog()) {
    const auto it = values_.find(name);
    report.set(name, it == values_.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
