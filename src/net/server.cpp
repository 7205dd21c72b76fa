#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "io/graph_io.hpp"
#include "model/power_model.hpp"
#include "sched/execution_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "util/error.hpp"

namespace reclaim::net {

namespace {

/// Rebuilds the MappedInstance a SOLVE body describes, exactly the way
/// reclaim_cli builds it from files: parse the graph, take the supplied
/// mapping or list-schedule one, chain same-processor tasks into the
/// execution graph, attach the platform. Every validation failure throws
/// reclaim::Error, which the caller answers with BAD_REQUEST.
engine::MappedInstance build_mapped_instance(const SolveRequest& request) {
  util::require(std::isfinite(request.deadline) && request.deadline > 0.0,
                "SOLVE: deadline must be positive and finite");
  const graph::Digraph app =
      io::read_task_graph_from_string(request.graph_text);

  std::optional<model::Platform> platform;
  if (!request.platform.empty()) platform.emplace(request.platform);
  const std::size_t processors =
      platform ? platform->size() : request.processors;
  util::require(processors >= 1, "SOLVE: processors must be >= 1");

  sched::Mapping mapping(1);
  if (!request.mapping_text.empty()) {
    mapping = io::read_mapping_from_string(request.mapping_text, app);
  } else {
    mapping = sched::list_schedule(app, processors).mapping;
  }
  graph::Digraph exec = sched::build_execution_graph(app, mapping);

  core::Instance instance =
      platform ? core::make_instance(std::move(exec), request.deadline,
                                     std::move(*platform), mapping)
               : core::make_instance(
                     std::move(exec), request.deadline,
                     model::make_power_model(request.alpha, request.p_static,
                                             request.sleep));
  return {std::move(instance), std::move(mapping)};
}

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

/// Everything one connection's reader and its in-flight workers share.
/// shared_ptr-owned by both, so a worker finishing after the reader broke
/// out of its loop still has a live write lock to take (the reader waits
/// for the flight count to drain before its fds go away).
struct ReclaimServer::Connection {
  int out_fd = -1;
  std::shared_ptr<ClientCounters> counters;
  /// Serializes reply frames onto out_fd; never held together with
  /// flight_mutex (send_reply releases it before the flight accounting).
  util::Mutex write_mutex;
  /// Set on the first write failure: the peer is gone, later replies are
  /// dropped instead of erroring once per in-flight solve.
  std::atomic<bool> dead{false};
  util::Mutex flight_mutex;
  util::CondVar flight_cv;
  std::size_t outstanding RECLAIM_GUARDED_BY(flight_mutex) = 0;
};

ReclaimServer::ReclaimServer(ServerOptions options)
    : options_(options),
      engine_(options.engine),
      start_(std::chrono::steady_clock::now()) {
  if (options_.stats_log_interval_s > 0.0 && options_.log != nullptr) {
    log_thread_ = std::thread([this] { log_loop(); });
  }
}

ReclaimServer::~ReclaimServer() {
  stopping_.store(true, std::memory_order_relaxed);
  if (log_thread_.joinable()) log_thread_.join();
}

void ReclaimServer::log_loop() {
  using namespace std::chrono_literals;
  const auto interval =
      std::chrono::duration<double>(options_.stats_log_interval_s);
  auto next = std::chrono::steady_clock::now() + interval;
  // Polls the stop flag at >= 4 Hz so shutdown() (async-signal-safe, no
  // condition variable to notify) is observed promptly.
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::min<std::chrono::duration<double>>(250ms, interval));
    if (std::chrono::steady_clock::now() < next) continue;
    next += interval;
    *options_.log << stats_line() << std::endl;
  }
}

void ReclaimServer::serve_stream(int in_fd, int out_fd) {
  handle_connection(in_fd, out_fd);
}

void ReclaimServer::serve_unix(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  util::require(socket_path.size() < sizeof(addr.sun_path),
                "socket path too long: " + socket_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error("socket(): " + util::errno_string(errno));
  ::unlink(socket_path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 16) != 0) {
    const std::string what = util::errno_string(errno);
    ::close(fd);
    throw Error("cannot listen on '" + socket_path + "': " + what);
  }
  listen_fd_.store(fd, std::memory_order_release);

  std::vector<std::thread> readers;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Poll with a timeout instead of blocking in accept(): Linux neither
    // fails accept() when another thread shutdown()s a *listening*
    // socket (ENOTCONN, accept keeps blocking) nor breaks it out for a
    // std::signal handler (SA_RESTART), so the stop flag is the one
    // reliable exit and must be re-checked periodically.
    pollfd waiter{fd, POLLIN, 0};
    const int ready = ::poll(&waiter, 1, /*timeout_ms=*/200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      break;
    }
    readers.emplace_back([this, client] {
      handle_connection(client, client);
      ::close(client);
    });
  }
  listen_fd_.store(-1, std::memory_order_release);
  ::close(fd);
  ::unlink(socket_path.c_str());
  for (auto& reader : readers) reader.join();
}

void ReclaimServer::shutdown() {
  stopping_.store(true, std::memory_order_relaxed);
  const int fd = listen_fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // unblocks accept()
}

void ReclaimServer::handle_connection(int in_fd, int out_fd) {
  const auto conn = std::make_shared<Connection>();
  conn->out_fd = out_fd;
  conn->counters = std::make_shared<ClientCounters>();
  {
    const util::MutexLock lock(clients_mutex_);
    conn->counters->id = ++next_client_id_;
    clients_.push_back(conn->counters);
    ++clients_active_;
  }

  std::string payload;
  for (;;) {
    bool got = false;
    try {
      got = read_frame(in_fd, payload, options_.max_frame_bytes);
    } catch (const FrameError& e) {
      // The length prefix itself was wrong: the stream is desynchronized
      // and nothing after this point can be parsed. Best-effort BAD_FRAME
      // (id 0 — no request to attribute it to), then close.
      if (e.kind() == FrameError::Kind::kOversized ||
          e.kind() == FrameError::Kind::kEmpty) {
        send_reply(*conn,
                   Message{0, ErrorReply{ErrorCode::kBadFrame, e.what()}});
      }
      break;
    }
    if (!got) break;  // clean EOF at a frame boundary

    Message message;
    try {
      message = decode(payload);
    } catch (const WireError& e) {
      // Payload errors keep the connection: the frame boundary held, so
      // the next frame is still parseable.
      send_reply(*conn, Message{peek_request_id(payload),
                                ErrorReply{e.code(), e.what()}});
      continue;
    }
    handle_message(conn, std::move(message));
  }

  {
    // The peer is gone (or desynced) but workers may still hold requests;
    // the fds must stay valid until the last reply is written or dropped.
    Connection& c = *conn;
    const util::MutexLock lock(c.flight_mutex);
    while (c.outstanding != 0) c.flight_cv.wait(c.flight_mutex);
  }
  const util::MutexLock lock(clients_mutex_);
  --clients_active_;
}

void ReclaimServer::handle_message(const std::shared_ptr<Connection>& conn,
                                   Message message) {
  const std::uint64_t id = message.id;
  if (auto* solve = std::get_if<SolveRequest>(&message.body)) {
    conn->counters->requests.fetch_add(1, std::memory_order_relaxed);
    engine::MappedInstance mapped;
    try {
      mapped = build_mapped_instance(*solve);
    } catch (const Error& e) {
      send_reply(*conn,
                 Message{id, ErrorReply{ErrorCode::kBadRequest, e.what()}});
      return;
    }
    core::SolveOptions options = options_.solve;
    options.leakage = solve->leakage;
    {
      Connection& c = *conn;
      const util::MutexLock lock(c.flight_mutex);
      ++c.outstanding;
    }
    engine_.submit(
        std::move(mapped), std::move(solve->model), options,
        [this, conn, id](core::Solution solution, std::exception_ptr error) {
          if (error) {
            send_reply(*conn, Message{id, ErrorReply{ErrorCode::kInternal,
                                                     describe(error)}});
          } else {
            send_reply(*conn, Message{id, SolveResult{std::move(solution)}});
          }
          Connection& c = *conn;
          const util::MutexLock lock(c.flight_mutex);
          if (--c.outstanding == 0) c.flight_cv.notify_all();
        });
    return;
  }
  if (std::holds_alternative<StatsRequest>(message.body)) {
    send_reply(*conn, Message{id, stats()});
    return;
  }
  if (std::holds_alternative<Ping>(message.body)) {
    send_reply(*conn, Message{id, Pong{}});
    return;
  }
  // RESULT / ERROR / STATS_REPLY / PONG are server-to-client only.
  send_reply(*conn, Message{id, ErrorReply{ErrorCode::kBadMessage,
                                           "unexpected server-to-client "
                                           "message type in a request"}});
}

void ReclaimServer::send_reply(Connection& conn, const Message& message) {
  // Per docs/serve_protocol.md: `results` counts RESULT frames only, so
  // PONG and STATS_REPLY traffic never inflates the solve throughput the
  // stats line reports.
  if (std::holds_alternative<SolveResult>(message.body)) {
    conn.counters->results.fetch_add(1, std::memory_order_relaxed);
  } else if (std::holds_alternative<ErrorReply>(message.body)) {
    conn.counters->errors.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn.dead.load(std::memory_order_relaxed)) return;
  try {
    const std::string payload = encode(message);
    const util::MutexLock lock(conn.write_mutex);
    write_frame(conn.out_fd, payload, options_.max_frame_bytes);
  } catch (const Error&) {
    // Peer vanished mid-reply (or a solution failed to encode): nothing
    // to tell it anymore; drop this connection's remaining replies.
    conn.dead.store(true, std::memory_order_relaxed);
  }
}

StatsReply ReclaimServer::stats() const {
  StatsReply reply;
  reply.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());

  const engine::EngineStats engine = engine_.stats();
  reply.instances = engine.instances;
  reply.fresh_solves = engine.fresh_solves;
  reply.memo_hits = engine.memo_hits;
  reply.shape_hits = engine.shape_hits;
  reply.memo_entries = engine.memo_entries;
  reply.memo_bytes = engine.memo_bytes;
  reply.memo_evictions = engine.memo_evictions;
  reply.memo_oldest_age_ms =
      static_cast<std::uint64_t>(engine.memo_oldest_age_s * 1000.0);
  reply.raced_solves = engine.raced_solves;
  reply.crawl_solves = engine.crawl_solves;
  reply.joint_solves = engine.joint_solves;
  reply.joint_improved = engine.joint_improved;
  reply.kernel_solves = engine.kernel_solves;
  reply.kernel_single = engine.kernel_single;
  reply.kernel_chain = engine.kernel_chain;
  reply.kernel_fork = engine.kernel_fork;
  reply.kernel_tree = engine.kernel_tree;
  reply.kernel_sp = engine.kernel_sp;

  const util::MutexLock lock(clients_mutex_);
  reply.clients_connected = next_client_id_;
  reply.clients_active = clients_active_;
  reply.clients.reserve(clients_.size());
  for (const auto& client : clients_) {
    StatsReply::Client row;
    row.id = client->id;
    row.requests = client->requests.load(std::memory_order_relaxed);
    row.results = client->results.load(std::memory_order_relaxed);
    row.errors = client->errors.load(std::memory_order_relaxed);
    reply.requests += row.requests;
    reply.results += row.results;
    reply.errors += row.errors;
    reply.clients.push_back(row);
  }
  return reply;
}

std::string ReclaimServer::stats_line() const {
  const StatsReply s = stats();
  std::ostringstream line;
  line.setf(std::ios::fixed);
  line.precision(1);
  line << "serve: up " << static_cast<double>(s.uptime_ms) / 1000.0 << "s; "
       << s.clients_active << "/" << s.clients_connected << " clients; "
       << s.requests << " requests -> " << s.results << " results + "
       << s.errors << " errors; memo " << s.memo_hits << "/" << s.instances
       << " hits (" << 100.0 * s.hit_rate() << "%), " << s.memo_entries
       << " entries, " << static_cast<double>(s.memo_bytes) / 1024.0
       << " KiB, " << s.memo_evictions << " evictions";
  if (s.memo_entries > 0) {
    line << ", oldest " << static_cast<double>(s.memo_oldest_age_ms) / 1000.0
         << "s";
  }
  if (s.joint_solves > 0) {
    line << "; joint " << s.joint_improved << "/" << s.joint_solves
         << " improved";
  }
  if (s.kernel_solves > 0) {
    line << "; fast path " << s.kernel_solves << " kernel (" << s.kernel_single
         << " single, " << s.kernel_chain << " chain, " << s.kernel_fork
         << " fork, " << s.kernel_tree << " tree, " << s.kernel_sp << " sp)";
  }
  return line.str();
}

}  // namespace reclaim::net
