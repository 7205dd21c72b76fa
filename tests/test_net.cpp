// Net-layer tests: wire codec round trips (canonical byte equality per
// message type), decode rejection of malformed payloads with the right
// protocol error codes, framing over real pipes, and the ReclaimServer
// end to end over socketpairs/pipes — error replies instead of crashes,
// out-of-order completion, and the shared cross-connection memo.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "core/solve.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"
#include "model/power_model.hpp"
#include "net/client.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "sched/execution_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "util/rng.hpp"

namespace rn = reclaim::net;
namespace rc = reclaim::core;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;
namespace rs = reclaim::sched;
namespace rio = reclaim::io;

namespace {

constexpr const char* kChainGraph = "task a 1\ntask b 2\ntask c 1\nedge a b\nedge b c\n";

rn::SolveRequest chain_request(double deadline = 4.0) {
  rn::SolveRequest request;
  request.deadline = deadline;
  request.model = rm::ContinuousModel{2.0};
  request.graph_text = kChainGraph;
  return request;
}

/// The instance the server reconstructs from `request` (uniform power,
/// no explicit mapping): list schedule + execution graph + power law.
rc::Instance reference_instance(const rn::SolveRequest& request) {
  const auto app = rio::read_task_graph_from_string(request.graph_text);
  const auto mapping = rs::list_schedule(app, request.processors).mapping;
  auto exec = rs::build_execution_graph(app, mapping);
  return rc::make_instance(
      std::move(exec), request.deadline,
      rm::make_power_model(request.alpha, request.p_static, request.sleep));
}

void expect_round_trip(const rn::Message& message) {
  const std::string bytes = rn::encode(message);
  const rn::Message back = rn::decode(bytes);
  EXPECT_EQ(back.id, message.id);
  EXPECT_EQ(rn::type_of(back), rn::type_of(message));
  // Canonical encoding: decode(encode(m)) re-encodes to the same bytes.
  EXPECT_EQ(rn::encode(back), bytes);
}

// ------------------------------------------------------------ wire codec

TEST(Wire, RoundTripSolveUniformPower) {
  rn::SolveRequest request = chain_request();
  request.leakage = rc::LeakageMode::kExact;
  request.processors = 2;
  request.alpha = 2.5;
  request.p_static = 0.25;
  request.sleep = rm::make_sleep_spec(0.1, 0.01, 0.5);
  request.mapping_text = "proc a c\nproc b\n";
  expect_round_trip({7, request});
}

TEST(Wire, RoundTripSolveHeterogeneousPlatform) {
  rn::SolveRequest request = chain_request();
  request.model = rm::VddHoppingModel{rm::ModeSet({0.5, 1.0, 2.0})};
  rm::ProcessorSpec slow;
  slow.power = rm::make_power_model(3.0, 0.2, rm::make_sleep_spec(0.1, 0.0, 0.3));
  slow.s_max = 1.0;
  rm::ProcessorSpec fast;
  fast.power = rm::make_power_model(2.0, 0.0, rm::SleepSpec{});
  fast.s_max = std::numeric_limits<double>::infinity();  // uncapped is legal
  request.platform = {slow, fast};
  expect_round_trip({8, request});
}

TEST(Wire, RoundTripSolveEveryModelKind) {
  for (const rm::EnergyModel& model :
       {rm::EnergyModel{rm::ContinuousModel{2.0}},
        rm::EnergyModel{rm::DiscreteModel{rm::ModeSet({0.5, 1.5})}},
        rm::EnergyModel{rm::VddHoppingModel{rm::ModeSet({1.0, 2.0})}},
        rm::EnergyModel{rm::IncrementalModel(0.5, 2.0, 0.5)}}) {
    rn::SolveRequest request = chain_request();
    request.model = model;
    expect_round_trip({1, request});
  }
}

TEST(Wire, RoundTripResult) {
  rn::SolveResult result;
  result.solution.feasible = true;
  result.solution.energy = 12.25;
  result.solution.method = "closed-form-chain";
  result.solution.iterations = 42;
  result.solution.speeds = {1.0, 1.5, 0.5};
  expect_round_trip({3, result});

  rn::SolveResult profiled;  // Vdd solutions carry per-task profiles
  profiled.solution.feasible = true;
  profiled.solution.energy = 3.5;
  profiled.solution.method = "vdd-lp";
  reclaim::sched::SpeedProfile profile;
  profile.segments.push_back({1.0, 0.5});
  profile.segments.push_back({2.0, 0.25});
  profiled.solution.profiles = {profile};
  expect_round_trip({4, profiled});

  rn::SolveResult infeasible;  // infeasible is a RESULT, not an ERROR
  infeasible.solution.feasible = false;
  infeasible.solution.energy = std::numeric_limits<double>::infinity();
  infeasible.solution.method = "kkt-newton";
  expect_round_trip({5, infeasible});
}

TEST(Wire, RoundTripErrorEveryCode) {
  for (const rn::ErrorCode code :
       {rn::ErrorCode::kBadFrame, rn::ErrorCode::kBadVersion,
        rn::ErrorCode::kBadMessage, rn::ErrorCode::kBadRequest,
        rn::ErrorCode::kInternal}) {
    expect_round_trip({9, rn::ErrorReply{code, "something broke"}});
  }
}

TEST(Wire, RoundTripEmptyBodies) {
  expect_round_trip({11, rn::StatsRequest{}});
  expect_round_trip({12, rn::Ping{}});
  expect_round_trip({13, rn::Pong{}});
}

TEST(Wire, RoundTripStatsReply) {
  rn::StatsReply stats;
  stats.uptime_ms = 123456;
  stats.clients_connected = 5;
  stats.clients_active = 2;
  stats.requests = 100;
  stats.results = 98;
  stats.errors = 2;
  stats.instances = 100;
  stats.fresh_solves = 40;
  stats.memo_hits = 60;
  stats.shape_hits = 90;
  stats.memo_entries = 40;
  stats.memo_bytes = 1 << 16;
  stats.memo_evictions = 3;
  stats.memo_oldest_age_ms = 2500;
  stats.raced_solves = 7;
  stats.crawl_solves = 9;
  stats.kernel_solves = 25;
  stats.joint_solves = 11;
  stats.joint_improved = 6;
  stats.clients = {{1, 50, 50, 0}, {2, 50, 48, 2}};
  expect_round_trip({14, stats});
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.6);
  // The v5 layout of docs/serve_protocol.md: a 10-byte header, 24 u64
  // counters, a u32 client count, and four u64s per client row.
  const std::string bytes = rn::encode(rn::Message{14, stats});
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[0]), 5u);
  EXPECT_EQ(bytes.size(), 10u + 24u * 8u + 4u + 2u * 4u * 8u);
}

TEST(Wire, EncodeRejectsNaN) {
  rn::SolveRequest request = chain_request();
  request.deadline = std::nan("");
  try {
    (void)rn::encode(rn::Message{1, request});
    FAIL() << "expected WireError";
  } catch (const rn::WireError& e) {
    EXPECT_EQ(e.code(), rn::ErrorCode::kBadMessage);
  }
}

TEST(Wire, DecodeRejectsNaNField) {
  std::string bytes = rn::encode(rn::Message{1, chain_request()});
  // The deadline f64 sits right after the 10-byte header; overwrite its
  // bit pattern with a NaN.
  const double nan = std::nan("");
  std::memcpy(bytes.data() + 10, &nan, sizeof nan);
  try {
    (void)rn::decode(bytes);
    FAIL() << "expected WireError";
  } catch (const rn::WireError& e) {
    EXPECT_EQ(e.code(), rn::ErrorCode::kBadMessage);
  }
}

TEST(Wire, DecodeRejectsBadVersion) {
  // 4 is the previous version, whose STATS_REPLY still carried the
  // barrier warm-seed counter: a v4 peer must be refused, not misparsed.
  for (const char version : {'\x2a', '\x04'}) {
    std::string bytes = rn::encode(rn::Message{1, rn::Ping{}});
    bytes[0] = version;
    try {
      (void)rn::decode(bytes);
      ADD_FAILURE() << "expected WireError for version "
                    << static_cast<int>(version);
    } catch (const rn::WireError& e) {
      EXPECT_EQ(e.code(), rn::ErrorCode::kBadVersion);
    }
  }
}

TEST(Wire, DecodeRejectsUnknownType) {
  std::string bytes = rn::encode(rn::Message{1, rn::Ping{}});
  bytes[1] = 0x7f;
  try {
    (void)rn::decode(bytes);
    FAIL() << "expected WireError";
  } catch (const rn::WireError& e) {
    EXPECT_EQ(e.code(), rn::ErrorCode::kBadMessage);
  }
}

TEST(Wire, DecodeRejectsEveryTruncation) {
  // Every strict prefix of a valid payload must throw — never read past
  // the end, never return a half-decoded message.
  const std::string bytes = rn::encode(rn::Message{77, chain_request()});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)rn::decode(std::string_view(bytes).substr(0, cut)),
                 rn::WireError)
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(Wire, DecodeRejectsTrailingBytes) {
  std::string bytes = rn::encode(rn::Message{1, chain_request()});
  bytes.push_back('\0');
  try {
    (void)rn::decode(bytes);
    FAIL() << "expected WireError";
  } catch (const rn::WireError& e) {
    EXPECT_EQ(e.code(), rn::ErrorCode::kBadMessage);
  }
}

TEST(Wire, DecodeRejectsInvalidModeSpeedAsBadRequest) {
  rn::SolveRequest request = chain_request();
  request.model = rm::DiscreteModel{rm::ModeSet({0.5, 1.5})};
  std::string bytes = rn::encode(rn::Message{1, request});
  // First mode speed: header (10) + deadline f64 (8) + model kind u8 (1)
  // + mode count u32 (4) = offset 23. A negative speed is structurally a
  // fine f64, semantically invalid -> BAD_REQUEST, not BAD_MESSAGE.
  const double negative = -1.0;
  std::memcpy(bytes.data() + 23, &negative, sizeof negative);
  try {
    (void)rn::decode(bytes);
    FAIL() << "expected WireError";
  } catch (const rn::WireError& e) {
    EXPECT_EQ(e.code(), rn::ErrorCode::kBadRequest);
  }
}

TEST(Wire, PeekRequestId) {
  const std::string bytes = rn::encode(rn::Message{0xdeadbeef, rn::Ping{}});
  EXPECT_EQ(rn::peek_request_id(bytes), 0xdeadbeefu);
  EXPECT_EQ(rn::peek_request_id("short"), 0u);
}

// --------------------------------------------------------------- framing

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    close_read();
    close_write();
  }
  void close_read() {
    if (fds[0] >= 0) ::close(fds[0]);
    fds[0] = -1;
  }
  void close_write() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(Framing, RoundTripOverPipe) {
  Pipe pipe;
  rn::write_frame(pipe.fds[1], "hello");
  rn::write_frame(pipe.fds[1], std::string(1000, 'x'));
  std::string payload;
  ASSERT_TRUE(rn::read_frame(pipe.fds[0], payload));
  EXPECT_EQ(payload, "hello");
  ASSERT_TRUE(rn::read_frame(pipe.fds[0], payload));
  EXPECT_EQ(payload, std::string(1000, 'x'));
}

TEST(Framing, CleanEofReturnsFalse) {
  Pipe pipe;
  pipe.close_write();
  std::string payload;
  EXPECT_FALSE(rn::read_frame(pipe.fds[0], payload));
}

TEST(Framing, TruncatedStreamThrows) {
  Pipe pipe;
  const std::uint32_t announced = 100;
  ASSERT_EQ(::write(pipe.fds[1], &announced, sizeof announced),
            static_cast<ssize_t>(sizeof announced));
  ASSERT_EQ(::write(pipe.fds[1], "only", 4), 4);
  pipe.close_write();
  std::string payload;
  try {
    (void)rn::read_frame(pipe.fds[0], payload);
    FAIL() << "expected FrameError";
  } catch (const rn::FrameError& e) {
    EXPECT_EQ(e.kind(), rn::FrameError::Kind::kTruncated);
  }
}

TEST(Framing, OversizedAnnouncementThrows) {
  Pipe pipe;
  const std::uint32_t announced = 4096;
  ASSERT_EQ(::write(pipe.fds[1], &announced, sizeof announced),
            static_cast<ssize_t>(sizeof announced));
  std::string payload;
  try {
    (void)rn::read_frame(pipe.fds[0], payload, /*max_payload=*/1024);
    FAIL() << "expected FrameError";
  } catch (const rn::FrameError& e) {
    EXPECT_EQ(e.kind(), rn::FrameError::Kind::kOversized);
  }
}

TEST(Framing, EmptyAnnouncementThrows) {
  Pipe pipe;
  const std::uint32_t announced = 0;
  ASSERT_EQ(::write(pipe.fds[1], &announced, sizeof announced),
            static_cast<ssize_t>(sizeof announced));
  std::string payload;
  try {
    (void)rn::read_frame(pipe.fds[0], payload);
    FAIL() << "expected FrameError";
  } catch (const rn::FrameError& e) {
    EXPECT_EQ(e.kind(), rn::FrameError::Kind::kEmpty);
  }
}

TEST(Framing, WriteRejectsOversizedPayload) {
  Pipe pipe;
  EXPECT_THROW(
      rn::write_frame(pipe.fds[1], std::string(2048, 'x'), /*max_payload=*/1024),
      rn::FrameError);
}

// ---------------------------------------------------------------- server

/// One live connection to `server` over a socketpair, with the server's
/// reader on its own thread. The destructor closes the client side
/// (EOF), joins, and closes the server side.
struct TestConnection {
  explicit TestConnection(rn::ReclaimServer& server) {
    int pair[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    server_fd = pair[0];
    client_fd = pair[1];
    reader = std::thread(
        [&server, fd = server_fd] { server.serve_stream(fd, fd); });
    client.emplace(rn::ServeClient::from_fds(client_fd, client_fd));
  }
  /// For tests where the *server* ends the connection: joins its reader
  /// (serve_stream has returned) and closes the server-side fd so the
  /// client observes EOF. Without this the fd would stay open in this
  /// process and the client's next read would block forever.
  void await_server_close() {
    reader.join();
    ::close(server_fd);
    server_fd = -1;
  }
  ~TestConnection() {
    if (reader.joinable()) {
      ::shutdown(client_fd, SHUT_RDWR);
      reader.join();
    }
    if (server_fd >= 0) ::close(server_fd);
    ::close(client_fd);
  }

  int server_fd = -1;
  int client_fd = -1;
  std::thread reader;
  std::optional<rn::ServeClient> client;
};

TEST(Server, SolveMatchesCoreSolve) {
  rn::ReclaimServer server;
  TestConnection conn(server);

  const rn::SolveRequest request = chain_request();
  const std::uint64_t id = conn.client->send_solve(request);
  const auto reply = conn.client->read_message();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->id, id);
  const auto* result = std::get_if<rn::SolveResult>(&reply->body);
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->solution.feasible);

  const rc::Solution expected =
      rc::solve(reference_instance(request), request.model);
  EXPECT_DOUBLE_EQ(result->solution.energy, expected.energy);
  ASSERT_EQ(result->solution.speeds.size(), expected.speeds.size());
  for (std::size_t i = 0; i < expected.speeds.size(); ++i) {
    EXPECT_DOUBLE_EQ(result->solution.speeds[i], expected.speeds[i]);
  }
}

TEST(Server, RepliesToPing) {
  rn::ReclaimServer server;
  TestConnection conn(server);
  const std::uint64_t id = conn.client->send_ping();
  const auto reply = conn.client->read_message();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->id, id);
  EXPECT_TRUE(std::holds_alternative<rn::Pong>(reply->body));
}

TEST(Server, GarbagePayloadGetsErrorAndConnectionSurvives) {
  rn::ReclaimServer server;
  TestConnection conn(server);

  // Wrong version byte with a parseable header: BAD_VERSION, id echoed.
  std::string bad = rn::encode(rn::Message{31, rn::Ping{}});
  bad[0] = 0x42;
  rn::write_frame(conn.client_fd, bad);
  auto reply = conn.client->read_message();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->id, 31u);
  {
    const auto* error = std::get_if<rn::ErrorReply>(&reply->body);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, rn::ErrorCode::kBadVersion);
  }

  // Pure garbage, too short for a header: BAD_MESSAGE with id 0.
  rn::write_frame(conn.client_fd, "garbage");
  reply = conn.client->read_message();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->id, 0u);
  {
    const auto* error = std::get_if<rn::ErrorReply>(&reply->body);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, rn::ErrorCode::kBadMessage);
  }

  // The connection is still fully usable afterwards.
  const std::uint64_t id = conn.client->send_solve(chain_request());
  reply = conn.client->read_message();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->id, id);
  EXPECT_TRUE(std::holds_alternative<rn::SolveResult>(reply->body));
}

TEST(Server, OversizedFrameGetsBadFrameThenClose) {
  rn::ServerOptions options;
  options.max_frame_bytes = 1024;
  rn::ReclaimServer server(options);
  TestConnection conn(server);

  const std::uint32_t announced = 1 << 20;
  ASSERT_EQ(::send(conn.client_fd, &announced, sizeof announced, 0),
            static_cast<ssize_t>(sizeof announced));
  const auto reply = conn.client->read_message();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->id, 0u);  // nothing to attribute a desynced stream to
  const auto* error = std::get_if<rn::ErrorReply>(&reply->body);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, rn::ErrorCode::kBadFrame);
  // The server closed its side: the next read is clean EOF.
  conn.await_server_close();
  EXPECT_FALSE(conn.client->read_message().has_value());
}

TEST(Server, SemanticErrorsGetBadRequestWithIdEchoed) {
  rn::ReclaimServer server;
  TestConnection conn(server);

  std::vector<std::uint64_t> ids;
  rn::SolveRequest bad_deadline = chain_request(-1.0);
  ids.push_back(conn.client->send_solve(bad_deadline));

  rn::SolveRequest bad_graph = chain_request();
  bad_graph.graph_text = "task a 1\nedge a nonexistent\n";
  ids.push_back(conn.client->send_solve(bad_graph));

  rn::SolveRequest bad_mapping = chain_request();
  bad_mapping.mapping_text = "proc a b unknown_task\n";
  ids.push_back(conn.client->send_solve(bad_mapping));

  for (const std::uint64_t expected_id : ids) {
    const auto reply = conn.client->read_message();
    ASSERT_TRUE(reply.has_value());
    // BAD_REQUEST is produced on the reader thread, in request order.
    EXPECT_EQ(reply->id, expected_id);
    const auto* error = std::get_if<rn::ErrorReply>(&reply->body);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, rn::ErrorCode::kBadRequest);
  }

  // A bad request never poisons the connection or the engine.
  const std::uint64_t good = conn.client->send_solve(chain_request());
  const auto reply = conn.client->read_message();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->id, good);
  EXPECT_TRUE(std::holds_alternative<rn::SolveResult>(reply->body));
}

TEST(Server, OutOfOrderCompletionMatchedByRequestId) {
  rn::ServerOptions options;
  options.engine.threads = 4;  // several solver lanes -> reordering
  rn::ReclaimServer server(options);
  TestConnection conn(server);

  // One heavy general DAG first, then a pile of trivial chains: the
  // chains overtake the stencil on the other pool threads, so replies
  // cannot come back in submission order. The chains are sent only once
  // a worker has picked the stencil up, and the stencil is large enough
  // to still be solving when they complete, so the premise holds no
  // matter how long an idle worker takes to wake.
  reclaim::util::Rng rng(99);
  const auto heavy_graph = rg::make_stencil(30, 30, rng);
  std::ostringstream heavy_text;
  rio::write_task_graph(heavy_text, heavy_graph);
  rn::SolveRequest heavy;
  heavy.model = rm::ContinuousModel{2.0};
  heavy.graph_text = heavy_text.str();
  heavy.deadline =
      1.4 * rc::min_deadline(rs::build_execution_graph(
                                 heavy_graph,
                                 rs::list_schedule(heavy_graph, 1).mapping),
                             2.0);

  const std::uint64_t heavy_id = conn.client->send_solve(heavy);
  {
    // Polled from a second connection so request ids on `conn` stay 1..41.
    // memoized() counts an instance as soon as a worker takes it, and as
    // a fresh solve only once it is solved.
    TestConnection monitor(server);
    for (;;) {
      (void)monitor.client->send_stats();
      const auto reply = monitor.client->read_message();
      ASSERT_TRUE(reply.has_value());
      const auto* stats = std::get_if<rn::StatsReply>(&reply->body);
      ASSERT_NE(stats, nullptr);
      ASSERT_EQ(stats->fresh_solves, 0u)
          << "the heavy solve finished before it was seen in flight";
      if (stats->instances == 1) break;
      std::this_thread::yield();
    }
  }
  constexpr std::size_t kLight = 40;
  for (std::size_t i = 0; i < kLight; ++i) {
    (void)conn.client->send_solve(chain_request());
  }

  std::vector<std::uint64_t> arrival_order;
  for (std::size_t i = 0; i < kLight + 1; ++i) {
    const auto reply = conn.client->read_message();
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(std::holds_alternative<rn::SolveResult>(reply->body));
    ASSERT_TRUE(std::get<rn::SolveResult>(reply->body).solution.feasible);
    arrival_order.push_back(reply->id);
  }
  // Every request answered exactly once, matched by id...
  std::vector<std::uint64_t> sorted = arrival_order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], i + 1);
  }
  // ...and the heavy one did NOT come back first: at least one later
  // submission overtook it.
  EXPECT_NE(arrival_order.front(), heavy_id);
}

TEST(Server, SecondConnectionHitsFirstConnectionsMemo) {
  rn::ReclaimServer server;
  const rn::SolveRequest request = chain_request();
  {
    TestConnection first(server);
    (void)first.client->send_solve(request);
    ASSERT_TRUE(first.client->read_message().has_value());
  }
  TestConnection second(server);
  (void)second.client->send_solve(request);
  const auto reply = second.client->read_message();
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(std::holds_alternative<rn::SolveResult>(reply->body));

  (void)second.client->send_stats();
  const auto stats_reply = second.client->read_message();
  ASSERT_TRUE(stats_reply.has_value());
  const auto* stats = std::get_if<rn::StatsReply>(&stats_reply->body);
  ASSERT_NE(stats, nullptr);
  // The whole point of the daemon: client 2's solve was answered from
  // client 1's memo entry.
  EXPECT_EQ(stats->instances, 2u);
  EXPECT_GE(stats->memo_hits, 1u);
  EXPECT_GT(stats->hit_rate(), 0.0);
  EXPECT_EQ(stats->clients_connected, 2u);
  EXPECT_EQ(stats->clients_active, 1u);  // first already disconnected
  ASSERT_EQ(stats->clients.size(), 2u);  // ...but keeps its counter row
  EXPECT_EQ(stats->clients[0].requests, 1u);
  EXPECT_EQ(stats->clients[0].results, 1u);
  EXPECT_EQ(stats->memo_entries, 1u);
  EXPECT_GT(stats->memo_bytes, 0u);
}

TEST(Server, StdioStylePipesEndToEnd) {
  // The --stdio transport: requests and responses on two plain pipes
  // (exercises the ENOTSOCK write fallback), out-of-order completion
  // allowed, EOF drains in-flight solves before the server returns.
  Pipe to_server;
  Pipe to_client;
  rn::ServerOptions options;
  options.engine.threads = 4;
  rn::ReclaimServer server(options);
  std::thread reader([&] {
    server.serve_stream(to_server.fds[0], to_client.fds[1]);
  });

  auto client =
      rn::ServeClient::from_fds(to_client.fds[0], to_server.fds[1]);
  constexpr std::size_t kRequests = 8;
  for (std::size_t i = 0; i < kRequests; ++i) {
    (void)client.send_solve(chain_request(3.0 + 0.5 * static_cast<double>(i)));
  }
  to_server.close_write();  // EOF: no more requests

  std::size_t results = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto reply = client.read_message();
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(std::holds_alternative<rn::SolveResult>(reply->body));
    EXPECT_TRUE(std::get<rn::SolveResult>(reply->body).solution.feasible);
    ++results;
  }
  reader.join();
  EXPECT_EQ(results, kRequests);
  EXPECT_EQ(server.stats().results, kRequests);
}

TEST(Server, UnexpectedClientMessageTypeIsBadMessage) {
  rn::ReclaimServer server;
  TestConnection conn(server);
  rn::write_frame(conn.client_fd,
                  rn::encode(rn::Message{55, rn::Pong{}}));
  const auto reply = conn.client->read_message();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->id, 55u);
  const auto* error = std::get_if<rn::ErrorReply>(&reply->body);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, rn::ErrorCode::kBadMessage);
}

}  // namespace
