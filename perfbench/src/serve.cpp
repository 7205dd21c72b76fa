// serve: daemon traffic through a ReclaimServer on a Unix-domain socket.
//
// Requests are wire SOLVEs carrying the graph (and mapping) as text, so
// the server rebuilds every instance (io parse, list schedule, execution
// graph) before the engine sees it. Most requests repeat a hot working set
// shared across connections (memo hits, the cache's read path); the rest
// are fresh closed-form requests (one processor, or an explicit
// one-task-per-processor mapping), fresh sleep-spec requests (race route)
// and a small share of fresh list-scheduled multi-processor DAGs (barrier
// solves, the latency tail). A STATS request goes out every second, as a
// monitor would send.
//
// Two phases: an open loop at a fixed Poisson rate, each SOLVE timed from
// its scheduled send to its RESULT, for latency; then a closed loop where
// each connection keeps a fixed window outstanding, for throughput. The
// generator is this process: `threads / 2` connections, each with one
// sending and one reading thread.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <semaphore>
#include <sstream>
#include <thread>

#include "check.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"
#include "model/power_model.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
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
constexpr std::size_t kHotSet = 256;
/// Closed-loop SOLVEs in flight per connection.
constexpr std::size_t kWindow = 16;
/// Closed-loop SOLVEs generated per second of the phase: above any rate
/// the server reached when the benchmark was defined (about 9000/s on 4
/// cores). A faster server ends the phase early on an empty plan.
constexpr double kClosedPlanRate = 10000.0;
/// Unmeasured open-loop traffic before the measured window: the first
/// second of load after set-up runs on cold caches and idle cores.
constexpr double kRampS = 1.5;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

enum class Kind { kChain, kMappedTree, kSleep, kDag };

/// One distinct SOLVE: its wire body, the instance the server will build
/// from it, and (hot set) the reference answer.
struct Request {
  net::SolveRequest wire;
  /// Encoded SOLVE (id 0), for the fingerprint and the replay.
  std::string payload;
  engine::MappedInstance rebuilt;
  bool hot = false;
  /// Fresh request whose answer is re-solved after the run.
  bool sampled = false;
  core::Solution reference;
};

const core::SolveOptions& server_options() {
  static const core::SolveOptions options{};
  return options;
}

class RequestGenerator {
 public:
  RequestGenerator(util::Rng rng, bool tiny) : rng_(rng), tiny_(tiny) {}

  Request make(Kind kind) {
    Request r;
    graph::Digraph app;
    bool one_per_processor = false;
    std::size_t processors = 1;
    const std::size_t n =
        tiny_ ? 8 : static_cast<std::size_t>(rng_.uniform_int(16, 24));
    switch (kind) {
      case Kind::kChain: app = graph::make_chain(n, rng_); break;
      case Kind::kMappedTree:
        app = tree_like(n);
        one_per_processor = true;
        break;
      case Kind::kSleep:
        if (rng_.bernoulli(0.5)) {
          app = graph::make_chain(n, rng_);
        } else {
          app = tree_like(n);
          one_per_processor = true;
        }
        // No static power: s_crit floors would send trees to the barrier.
        r.wire.sleep = model::make_sleep_spec(rng_.uniform(0.3, 1.0), 0.01,
                                              rng_.uniform(0.05, 0.5));
        break;
      case Kind::kDag:
        app = tiny_ ? graph::make_layered(3, 3, 0.4, rng_)
                    : graph::make_layered(3, 5, 0.35, rng_);
        processors = static_cast<std::size_t>(rng_.uniform_int(2, 4));
        break;
    }
    // Generated SP graphs name every junction "junction"; the text format
    // needs unique task names.
    for (std::size_t v = 0; v < app.num_nodes(); ++v) {
      app.set_name(v, "T" + std::to_string(v));
    }
    sched::Mapping mapping(1);
    if (one_per_processor) {
      std::vector<std::vector<graph::NodeId>> lists(app.num_nodes());
      for (std::size_t v = 0; v < app.num_nodes(); ++v) lists[v] = {v};
      mapping = sched::Mapping(std::move(lists));
      std::ostringstream text;
      io::write_mapping(text, mapping, app);
      r.wire.mapping_text = text.str();
    } else {
      mapping = sched::list_schedule(app, processors).mapping;
    }
    const graph::Digraph exec = sched::build_execution_graph(app, mapping);
    const double slack = kind == Kind::kSleep ? rng_.uniform(1.5, 3.5)
                                              : rng_.uniform(1.2, 3.0);
    r.wire.deadline = slack * core::min_deadline(exec, kSmax);
    r.wire.model = model::ContinuousModel{kSmax};
    r.wire.processors = static_cast<std::uint32_t>(processors);
    r.wire.alpha = rng_.uniform(2.5, 3.2);
    std::ostringstream text;
    io::write_task_graph(text, app);
    r.wire.graph_text = text.str();
    r.payload = net::encode(net::Message{0, r.wire});
    r.rebuilt = rebuild_request(r.wire);
    return r;
  }

  /// Draws the kind of the next request of the stream: mostly hot
  /// repeats, then fresh closed-form, sleep and multi-processor DAGs.
  std::optional<Kind> fresh_kind() {
    const double u = rng_.uniform();
    if (u < 0.75) return std::nullopt;
    if (u < 0.92) return rng_.bernoulli(0.5) ? Kind::kChain : Kind::kMappedTree;
    if (u < 0.97) return Kind::kSleep;
    return Kind::kDag;
  }

  std::size_t hot_index() {
    return static_cast<std::size_t>(rng_.uniform_int(0, kHotSet - 1));
  }
  double exponential(double rate) {
    return -std::log(1.0 - rng_.uniform()) / rate;
  }
  bool bernoulli(double p) { return rng_.bernoulli(p); }

 private:
  graph::Digraph tree_like(std::size_t n) {
    switch (rng_.uniform_int(0, 3)) {
      case 0: return graph::make_random_out_tree(n, rng_);
      case 1: return graph::make_random_in_tree(n, rng_);
      case 2: return graph::make_fork(n - 1, rng_);
      default: return graph::make_random_series_parallel(n, rng_);
    }
  }

  util::Rng rng_;
  bool tiny_;
};

/// One connection's share of a phase: what to send, and when (open loop).
struct Plan {
  std::vector<const Request*> requests;
  std::vector<Clock::time_point> due;  ///< empty in the closed loop
};

/// A request id's bookkeeping, written by the sender before the frame
/// goes out and read by the reader when its reply arrives.
struct Slot {
  std::atomic<const Request*> request{nullptr};
  std::atomic<std::int64_t> due_ns{0};
};

struct Outcome {
  std::vector<double> latency_ms;  ///< open loop: scheduled send -> RESULT
  std::vector<double> lag_ms;      ///< open loop: actual - scheduled send
  std::uint64_t sent = 0;
  std::uint64_t results = 0;
  Clock::time_point last_reply;
};

class Connection {
 public:
  Connection(const std::string& socket_path, Checker& checker, Layers* layers,
             std::mutex& sample_mutex,
             std::vector<std::pair<const Request*, core::Solution>>& samples,
             bool plant)
      : client_(std::make_unique<net::ServeClient>(
            net::ServeClient::connect_unix(socket_path))),
        checker_(checker),
        layers_(layers),
        sample_mutex_(sample_mutex),
        samples_(samples),
        plant_(plant) {}

  /// Sends `plan` (paced by `due`, or by a window of kWindow replies) and
  /// reads every reply; with `stop` set the closed loop ends at that time.
  /// STATS goes out once a second when `monitor` is set.
  Outcome run(const Plan& plan, Clock::time_point epoch, bool monitor,
              std::optional<Clock::time_point> stop, std::uint32_t phase_span,
              Clock::time_point measure_from = {}) {
    const std::size_t max_ids = plan.requests.size() + 4096;
    slots_ = std::make_unique<Slot[]>(max_ids + 1);
    Outcome out;
    std::atomic<std::uint64_t> sent{0};
    std::atomic<bool> sending_done{false};
    std::atomic<std::uint64_t> sentinel{0};
    std::counting_semaphore<kWindow> window(kWindow);
    const bool closed = plan.due.empty();

    // The client numbers requests from 1 across runs; slot k is id base + k.
    const std::uint64_t base = ids_;
    std::thread sender([&] {
      auto next_stats = epoch + std::chrono::seconds(1);
      std::uint64_t id = 0;
      for (std::size_t k = 0; k < plan.requests.size() && id + 2 < max_ids;
           ++k) {
        if (closed) {
          window.acquire();
          if (stop && Clock::now() >= *stop) break;
        } else {
          std::this_thread::sleep_until(plan.due[k]);
        }
        const auto now = Clock::now();
        if (monitor && now >= next_stats) {
          ++id;
          slots_[id].due_ns.store(-1, std::memory_order_relaxed);
          slots_[id].request.store(nullptr, std::memory_order_release);
          check_id(client_->send_stats(), base + id);
          next_stats += std::chrono::seconds(1);
        }
        const auto due = closed ? now : plan.due[k];
        if (!closed && due >= measure_from) out.lag_ms.push_back(ms(due, now));
        ++id;
        slots_[id].due_ns.store(due.time_since_epoch().count(),
                                std::memory_order_relaxed);
        slots_[id].request.store(plan.requests[k], std::memory_order_release);
        check_id(client_->send_solve(plan.requests[k]->wire), base + id);
        sent.fetch_add(1, std::memory_order_release);
      }
      // The PING sentinel: once its PONG and every RESULT are in, the
      // reader is done.
      sending_done.store(true, std::memory_order_release);
      ++id;
      sentinel.store(base + id, std::memory_order_release);
      check_id(client_->send_ping(), base + id);
    });

    bool sentinel_seen = false;
    for (;;) {
      if (sentinel_seen &&
          out.results == sent.load(std::memory_order_acquire)) {
        break;
      }
      const auto reply = client_->read_message();
      const auto now = Clock::now();
      if (!reply) {
        checker_.fail("serve: server closed the connection");
        break;
      }
      if (std::holds_alternative<net::Pong>(reply->body)) {
        sentinel_seen = reply->id == sentinel.load(std::memory_order_acquire);
        continue;
      }
      if (std::holds_alternative<net::StatsReply>(reply->body)) continue;
      const std::uint64_t slot = reply->id - base;
      if (reply->id <= base || slot > max_ids) {
        checker_.fail("serve: reply to an unknown request id");
        continue;
      }
      const Request* request =
          slots_[slot].request.load(std::memory_order_acquire);
      ++out.results;
      out.last_reply = now;
      if (closed) window.release();
      if (request == nullptr) {
        checker_.fail("serve: reply to an unknown request id");
        continue;
      }
      if (const auto* error = std::get_if<net::ErrorReply>(&reply->body)) {
        checker_.fail("serve: ERROR " +
                      std::string(net::to_string(error->code)) + ": " +
                      error->message);
        continue;
      }
      const Clock::time_point due{Clock::duration(
          slots_[slot].due_ns.load(std::memory_order_relaxed))};
      if (!closed && due >= measure_from) {
        out.latency_ms.push_back(ms(due, now));
      }
      if (phase_span != 0) {
        Tracer::get().record("serve.request", reply->id, due, now, phase_span);
      }
      core::Solution answer =
          std::get<net::SolveResult>(std::move(reply->body)).solution;
      maybe_plant(plant_, answer);
      verify(*request, answer);
    }
    sender.join();
    ids_ = sentinel.load();
    out.sent = sent.load();
    if (!sending_done.load()) checker_.fail("serve: sender did not finish");
    return out;
  }

  net::ServeClient& client() { return *client_; }

 private:
  static double ms(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  }

  static void check_id(std::uint64_t got, std::uint64_t want) {
    if (got != want) throw std::runtime_error("serve: request ids out of step");
  }

  void verify(const Request& request, const core::Solution& answer) {
    if (layers_ != nullptr) layers_->tally(request.rebuilt.instance, answer);
    if (request.hot) {
      checker_.same(answer, request.reference, "serve hot");
      return;
    }
    checker_.check(request.rebuilt.instance, request.wire.model, answer,
                   "serve fresh");
    if (request.sampled) {
      const std::lock_guard<std::mutex> lock(sample_mutex_);
      samples_.emplace_back(&request, answer);
    }
  }

  std::unique_ptr<net::ServeClient> client_;
  Checker& checker_;
  Layers* layers_;
  std::mutex& sample_mutex_;
  std::vector<std::pair<const Request*, core::Solution>>& samples_;
  bool plant_;
  std::unique_ptr<Slot[]> slots_;
  std::uint64_t ids_ = 0;  ///< last request id the client handed out
};

/// A live server on its own accept thread, plus the generator's
/// connections to it.
class LiveServer {
 public:
  explicit LiveServer(const std::string& path) : path_(path) {
    net::ServerOptions options;
    options.engine.threads = hardware_threads();
    server_ = std::make_unique<net::ReclaimServer>(options);
    accept_ = std::thread([this] { server_->serve_unix(path_); });
  }

  ~LiveServer() {
    connections.clear();  // EOF on every connection: readers drain and exit
    server_->shutdown();
    if (accept_.joinable()) accept_.join();
  }

  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  /// Connects `count` clients, retrying until the socket is listening.
  template <typename... A>
  void connect(std::size_t count, A&&... args) {
    for (std::size_t c = 0; c < count; ++c) {
      for (int attempt = 0;; ++attempt) {
        try {
          connections.push_back(std::make_unique<Connection>(path_, args...));
          break;
        } catch (const Error&) {
          if (attempt > 2000) throw;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
  }

  net::ReclaimServer& server() { return *server_; }
  std::vector<std::unique_ptr<Connection>> connections;

 private:
  std::string path_;
  std::unique_ptr<net::ReclaimServer> server_;
  std::thread accept_;
};

/// Runs one phase: every connection its own plan, concurrently.
std::vector<Outcome> run_phase(LiveServer& live, const std::vector<Plan>& plans,
                               Clock::time_point epoch,
                               std::optional<Clock::time_point> stop,
                               std::uint32_t phase_span,
                               Clock::time_point measure_from = {}) {
  std::vector<Outcome> outcomes(plans.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < plans.size(); ++c) {
    threads.emplace_back([&, c] {
      outcomes[c] = live.connections[c]->run(plans[c], epoch, c == 0, stop,
                                             phase_span, measure_from);
    });
  }
  for (auto& t : threads) t.join();
  return outcomes;
}

}  // namespace

Report run_serve(const Args& args) {
  Report report;
  Checker checker;
  Layers layers;
  Layers* tally = args.trace ? &layers : nullptr;
  const util::Rng root(args.seed);
  const std::size_t connections =
      std::max<std::size_t>(1, hardware_threads() / 2);
  const double phase_s = args.seconds / 2.0;
  Timed timed;
  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string socket_path =
      args.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  // ---- inputs, generated before any timing
  std::deque<Request> requests;  // stable addresses
  std::vector<Request*> hot;
  Plan warm_plan;
  std::vector<Plan> open_plans(connections);
  std::vector<Plan> closed_plans(connections);
  std::vector<double> open_offsets_s;
  Fingerprint fingerprint;
  {
    const Tracer::Scope span("bench.generate");
    RequestGenerator gen(root.substream(1), args.tiny);
    const std::size_t hot_size = args.tiny ? 16 : kHotSet;
    for (std::size_t i = 0; i < hot_size; ++i) {
      const Kind kind = i % 7 == 0   ? Kind::kSleep
                        : i % 2 == 0 ? Kind::kChain
                                     : Kind::kMappedTree;
      requests.push_back(gen.make(kind));
      requests.back().hot = true;
      hot.push_back(&requests.back());
      warm_plan.requests.push_back(hot.back());
    }
    // Fresh closed-loop requests drop their encoded bytes once hashed:
    // only open-loop requests are replayed.
    const auto draw = [&](bool open) -> const Request* {
      const Request* drawn = nullptr;
      if (const auto kind = gen.fresh_kind()) {
        requests.push_back(gen.make(*kind));
        requests.back().sampled = gen.bernoulli(1.0 / 8.0);
        drawn = &requests.back();
      } else {
        drawn = hot[gen.hot_index() % hot.size()];
      }
      fingerprint.str(drawn->payload);
      if (!open && !drawn->hot) std::string().swap(requests.back().payload);
      return drawn;
    };
    double t = 0.0;
    for (std::size_t k = 0;; ++k) {
      t += gen.exponential(args.serve_rate);
      if (t >= kRampS + phase_s) break;
      open_plans[k % connections].requests.push_back(draw(true));
      open_offsets_s.push_back(t);
    }
    const auto closed_count =
        static_cast<std::size_t>(kClosedPlanRate * phase_s);
    for (std::size_t k = 0; k < (args.tiny ? 200 : closed_count); ++k) {
      closed_plans[k % connections].requests.push_back(draw(false));
    }
  }
  {
    const Tracer::Scope span("bench.reference");
    for (Request* r : hot) {
      Request& request = *r;
      request.reference = reference_solve(request.rebuilt.instance,
                                          &request.rebuilt.mapping,
                                          request.wire.model, server_options());
      checker.check(request.rebuilt.instance, request.wire.model,
                    request.reference, "serve hot reference");
    }
  }

  std::mutex sample_mutex;
  std::vector<std::pair<const Request*, core::Solution>> samples;
  const auto connect = [&](LiveServer& live) {
    live.connect(connections, checker, tally, sample_mutex, samples,
                 args.plant_wrong);
  };

  // ---- set-up: server, connections, warm-up pass over the hot set
  std::unique_ptr<LiveServer> live;
  for (int k = 0; k < kSetupRepeats; ++k) {
    live.reset();
    const Tracer::Scope span("bench.setup");
    const auto t0 = Clock::now();
    live = std::make_unique<LiveServer>(socket_path);
    connect(*live);
    Plan plan = warm_plan;
    (void)live->connections[0]->run(plan, Clock::now(), false, std::nullopt, 0);
    timed.setup_s.push_back(seconds_since(t0));
  }

  // ---- open loop: fixed Poisson rate, latency from the scheduled send
  std::vector<Outcome> open;
  {
    const Tracer::Scope span("serve.open_loop");
    const auto epoch = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < open_offsets_s.size(); ++i) {
      Plan& plan = open_plans[i % connections];
      plan.due.push_back(epoch + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         open_offsets_s[i])));
    }
    open = run_phase(*live, open_plans, epoch, std::nullopt, span.id(),
                     epoch + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kRampS)));
  }

  // ---- closed loop: a fixed window per connection, for throughput
  double fine[2] = {0.0, 0.0};  // seconds, RESULTs with per-request spans
  double coarse[2] = {0.0, 0.0};
  std::vector<double> slice_rates;
  std::vector<Outcome> closed;
  Clock::time_point closed_start;
  {
    const Tracer::Scope span("serve.closed_loop");
    closed_start = Clock::now();
    const auto stop =
        closed_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(phase_s));
    std::atomic<bool> drained{false};
    std::thread phase([&] {
      closed = run_phase(*live, closed_plans, closed_start, stop, span.id());
      drained.store(true);
    });
    // RESULT rate per half-second slice, from the server's own counter.
    // The traced run alternates per-request spans on and off by slice and
    // compares the rates: the trace's own overhead.
    bool on = true;
    while (Clock::now() < stop && !drained.load()) {
      Tracer::get().set_fine(on);
      const auto t0 = Clock::now();
      const auto r0 = live->server().stats().results;
      std::this_thread::sleep_until(
          std::min(stop, t0 + std::chrono::milliseconds(500)));
      const double s = seconds_since(t0);
      const auto n = static_cast<double>(live->server().stats().results - r0);
      slice_rates.push_back(n / s);
      double* acc = on ? fine : coarse;
      acc[0] += s;
      acc[1] += n;
      on = !on;
    }
    Tracer::get().set_fine(true);
    phase.join();
  }

  double rtt_us = 0.0;
  if (args.trace) {
    const Tracer::Scope span("bench.ping");
    std::vector<double> rtts;
    net::ServeClient& client = live->connections[0]->client();
    for (int k = 0; k < (args.tiny ? 8 : 500); ++k) {
      const auto t0 = Clock::now();
      (void)client.send_ping();
      const auto reply = client.read_message();
      if (!reply || !std::holds_alternative<net::Pong>(reply->body)) {
        checker.fail("serve: PING not answered with PONG");
        break;
      }
      rtts.push_back(1e6 * seconds_since(t0));
    }
    rtt_us = median(rtts);
  }
  const engine::EngineStats engine_stats = live->server().engine().stats();
  const net::StatsReply server_stats = live->server().stats();
  {
    const Tracer::Scope span("bench.teardown");
    live.reset();
  }

  // ---- sampled fresh answers against the in-process reference
  {
    const Tracer::Scope span("bench.reference");
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < hardware_threads(); ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < samples.size(); i = next++) {
          const Request& r = *samples[i].first;
          checker.same(samples[i].second,
                       reference_solve(r.rebuilt.instance, &r.rebuilt.mapping,
                                       r.wire.model, server_options()),
                       "serve sample");
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  // ---- end-to-end numbers
  std::uint64_t sent = 0;
  std::vector<double> lag_ms;
  for (const Outcome& o : open) {
    timed.latency_ms.insert(timed.latency_ms.end(), o.latency_ms.begin(),
                            o.latency_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    sent += o.sent;
  }
  Clock::time_point closed_end = closed_start;
  double closed_results = 0.0;
  for (const Outcome& o : closed) {
    closed_results += static_cast<double>(o.results);
    closed_end = std::max(closed_end, o.last_reply);
    sent += o.sent;
  }
  const double closed_s =
      std::chrono::duration<double>(closed_end - closed_start).count();
  std::string lag_label;
  const double lag_tail = supported_tail(lag_ms, &lag_label);
  const std::size_t closed_planned =
      closed_plans.size() * closed_plans[0].requests.size();
  report.note("fingerprint " + fingerprint.hex() +
              " over the request bytes of " +
              std::to_string(open_offsets_s.size()) + " open-loop and " +
              std::to_string(closed_planned) + " closed-loop SOLVEs");
  report.note("open loop: " + fmt(args.serve_rate, 0) + " SOLVE/s offered, " +
              std::to_string(timed.latency_ms.size()) +
              " RESULTs; generator lag " + lag_label + " " + fmt(lag_tail, 3) +
              " ms");
  timed.throughput = median(slice_rates);
  report.note("closed loop: " + fmt(closed_results, 0) + " RESULTs in " +
              fmt(closed_s, 3) + " s with " + std::to_string(kWindow) +
              " in flight on each of " + std::to_string(connections) +
              " connections");
  report.note("server: " + std::to_string(server_stats.requests) +
              " requests, " +
              std::to_string(server_stats.results) + " results, " +
              std::to_string(server_stats.errors) + " errors, memo hit rate " +
              fmt(server_stats.hit_rate(), 4));

  if (!args.trace) {
    emit_verdict(checker, sent, report);
    emit_end_to_end(timed, report);
    return report;
  }
  layers.engine_counters(engine_stats);
  layers.set("net.ping_rtt_us", rtt_us);
  layers.set("bench.generator_lag_ms", lag_tail);
  // Replay a seeded sample of the stream through the server's stages.
  std::vector<ReplayItem> items;
  util::Rng pick = root.substream(3);
  for (const Plan& plan : open_plans) {
    for (const Request* r : plan.requests) {
      if (items.size() >= (args.tiny ? 32u : 1024u) || !pick.bernoulli(0.25)) {
        continue;
      }
      items.push_back(ReplayItem{&r->rebuilt.instance, &r->rebuilt.mapping,
                                 &r->wire.model, server_options(),
                                 &r->payload});
    }
  }
  layers.replay(items, checker);
  emit_verdict(checker, sent, report);
  // The closed loop's half-second slices alternate per-request spans on
  // and off over one request stream: the difference in time per RESULT.
  const double fine_s = fine[1] > 0 ? fine[0] / fine[1] : 0.0;
  const double coarse_s = coarse[1] > 0 ? coarse[0] / coarse[1] : 0.0;
  emit_per_layer(args, layers,
                 coarse_s > 0.0 ? 100.0 * (fine_s / coarse_s - 1.0) : 0.0,
                 report);
  return report;
}

}  // namespace perfbench
