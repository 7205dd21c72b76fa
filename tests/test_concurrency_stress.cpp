// Concurrency stress: N pipelined clients hammering one ReclaimServer
// over socketpairs with mixed SOLVE/STATS/PING traffic while the memo
// evicts under a tiny byte cap.
//
// This is the primary ThreadSanitizer target (CI's tsan job runs it next
// to the engine/net/kernel suites) and it doubles as a functional test in
// the normal suite: every reply must be attributable, totals must
// balance, the tiny cache must actually churn, and every answer to the
// same request must be bit-identical however it was produced (fresh
// solve, memo hit, or re-solve after an eviction). The engine pool, the
// per-connection reader/worker handoff, the shared LRU memo, the
// dispatch/shape cache, and the live STATS sampler are all exercised
// simultaneously — exactly the surface the thread-
// safety annotations (util/annotated_mutex.hpp) claim to protect. The
// last test races copies of one graph::Digraph, whose copies share one
// reference-counted structure.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/solution_cache.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "model/energy_model.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "util/annotated_mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rn = reclaim::net;
namespace rc = reclaim::core;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;
namespace re = reclaim::engine;
namespace ru = reclaim::util;

namespace {

/// 2x3 grid (right + down edges): classified general, so continuous
/// solves take the numeric barrier.
constexpr const char* kGridGraph =
    "task a 1\ntask b 2\ntask c 1\ntask d 2\ntask e 1\ntask f 2\n"
    "edge a b\nedge b c\nedge d e\nedge e f\n"
    "edge a d\nedge b e\nedge c f\n";

/// A short chain: closed form, cheap, shares the memo with every client.
constexpr const char* kChainGraph =
    "task a 1\ntask b 2\ntask c 1\nedge a b\nedge b c\n";

struct ClientTally {
  std::uint64_t solves_sent = 0;
  std::uint64_t results = 0;
  std::uint64_t errors = 0;
  std::uint64_t pongs = 0;
  std::uint64_t stats_replies = 0;
  /// Every feasible RESULT, tagged with the request that produced it.
  std::vector<std::pair<std::string, rc::Solution>> feasible;
};

/// What a client asked for, keyed by request id until the reply arrives.
struct PendingRequest {
  int kind = 0;     ///< 0 = solve, 1 = ping, 2 = stats
  std::string key;  ///< solves only: "<graph>@<deadline>"
};

/// One pipelined client: a sender thread issues the mixed request stream
/// while the caller's thread reads replies until every id is answered.
/// Failures are reported via ADD_FAILURE (never an early return) so the
/// sender and server threads are always joined.
void run_client(rn::ReclaimServer& server, int client_index, int requests,
                ClientTally& tally) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return;
  }
  std::thread server_side([&server, fd = fds[1]] {
    server.serve_stream(fd, fd);
    ::close(fd);
  });

  auto client = rn::ServeClient::from_fds(fds[0], fds[0], /*owns_fds=*/true);

  // id -> what we asked for; filled by the sender, consumed by the
  // reader. Guarded by the annotated mutex the library itself uses.
  ru::Mutex mutex;
  std::map<std::uint64_t, PendingRequest> pending RECLAIM_GUARDED_BY(mutex);
  std::atomic<std::uint64_t> sent{0};

  std::thread sender([&] {
    // Deadline grid: repeats across clients (memo hits) and within a
    // client (re-solves once the tiny memo has evicted the entry). A few
    // deadlines sit below the critical path so infeasible results flow
    // through the same pipe.
    const double deadlines[] = {3.0, 4.5, 6.0, 2.5, 8.0, 3.5};
    for (int i = 0; i < requests; ++i) {
      PendingRequest what;
      rn::SolveRequest request;
      if (i % 11 == 7) {
        what.kind = 1;
      } else if (i % 7 == 3) {
        what.kind = 2;
      } else {
        const bool chain = i % 3 == 0;
        request.graph_text = chain ? kChainGraph : kGridGraph;
        request.deadline =
            deadlines[static_cast<std::size_t>(i + client_index) %
                      std::size(deadlines)];
        request.model = rm::ContinuousModel{2.0};
        request.processors = 2;
        what.key = std::string(chain ? "chain" : "grid") + "@" +
                   std::to_string(request.deadline);
      }
      // Registered before it is sent: the reply may arrive before the
      // send returns. This thread is the only sender, so the id is the
      // next one the client hands out (monotonic from 1).
      const auto expected_id = static_cast<std::uint64_t>(i) + 1;
      const int kind = what.kind;
      {
        const ru::MutexLock lock(mutex);
        pending.emplace(expected_id, std::move(what));
      }
      const std::uint64_t id = kind == 1   ? client.send_ping()
                               : kind == 2 ? client.send_stats()
                                           : client.send_solve(request);
      EXPECT_EQ(id, expected_id);
      sent.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::uint64_t answered = 0;
  while (answered < static_cast<std::uint64_t>(requests)) {
    const auto message = client.read_message();
    if (!message.has_value()) {
      ADD_FAILURE() << "server closed early (" << answered << " of "
                    << requests << " replies)";
      break;
    }
    PendingRequest what{-1, {}};
    {
      const ru::MutexLock lock(mutex);
      const auto it = pending.find(message->id);
      if (it == pending.end()) {
        ADD_FAILURE() << "reply for unknown request id " << message->id;
      } else {
        what = std::move(it->second);
        pending.erase(it);
      }
    }
    const int kind = what.kind;
    ++answered;
    if (const auto* result = std::get_if<rn::SolveResult>(&message->body)) {
      EXPECT_EQ(kind, 0);
      ++tally.results;
      if (result->solution.feasible) {
        EXPECT_GT(result->solution.energy, 0.0);
        tally.feasible.emplace_back(std::move(what.key), result->solution);
      }
    } else if (std::holds_alternative<rn::ErrorReply>(message->body)) {
      ++tally.errors;
    } else if (std::holds_alternative<rn::Pong>(message->body)) {
      EXPECT_EQ(kind, 1);
      ++tally.pongs;
    } else if (const auto* stats =
                   std::get_if<rn::StatsReply>(&message->body)) {
      EXPECT_EQ(kind, 2);
      // Live sample taken mid-flight: totals only ever grow, and the
      // reply counter can never exceed the request counter.
      EXPECT_LE(stats->results + stats->errors, stats->requests + requests);
      ++tally.stats_replies;
    } else {
      ADD_FAILURE() << "unexpected reply type";
    }
  }

  sender.join();
  tally.solves_sent = sent.load() - tally.pongs - tally.stats_replies;
  client.finish_sending();  // half-close: server reader sees EOF and drains
  server_side.join();
}

}  // namespace

TEST(ConcurrencyStress, MixedTrafficUnderEvictionIsBitIdentical) {
  rn::ServerOptions options;
  options.engine.threads = 3;
  options.engine.memo_capacity = 8;
  options.engine.memo_bytes = 2048;  // a few entries: constant LRU churn
  rn::ReclaimServer server(options);

  constexpr int kClients = 4;
  constexpr int kRequests = 120;

  std::vector<std::thread> clients;
  std::vector<ClientTally> tallies(kClients);
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(
        [&, c] { run_client(server, c, kRequests, tallies[c]); });
  }
  for (auto& t : clients) t.join();

  std::uint64_t solves = 0;
  std::uint64_t results = 0;
  for (const auto& tally : tallies) {
    EXPECT_EQ(tally.errors, 0u);
    EXPECT_EQ(tally.results, tally.solves_sent);
    solves += tally.solves_sent;
    results += tally.results;
  }

  const rn::StatsReply stats = server.stats();
  EXPECT_EQ(stats.clients_connected, kClients);
  EXPECT_EQ(stats.clients_active, 0u);
  EXPECT_EQ(stats.requests, solves);
  EXPECT_EQ(stats.results, results);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.instances, stats.fresh_solves + stats.memo_hits);
  // The deadline grid repeats across clients: the shared memo must serve
  // cross-client hits even while the tiny byte cap forces evictions.
  EXPECT_GT(stats.memo_hits, 0u);
  EXPECT_GT(stats.memo_evictions, 0u);
  EXPECT_LE(stats.memo_entries, 8u);

  // The engine's contract: one request, one answer. Every feasible reply
  // to the same (graph, deadline) must be bit-identical across clients,
  // LRU evictions and worker interleavings.
  std::map<std::string, rc::Solution> first_answer;
  std::size_t repeats = 0;
  for (const auto& tally : tallies) {
    for (const auto& [key, solution] : tally.feasible) {
      const auto [it, fresh] = first_answer.emplace(key, solution);
      if (fresh) continue;
      ++repeats;
      SCOPED_TRACE(key);
      const rc::Solution& first = it->second;
      EXPECT_EQ(solution.method, first.method);
      EXPECT_EQ(solution.energy, first.energy);  // bit-identical
      EXPECT_EQ(solution.speeds, first.speeds);
    }
  }
  EXPECT_GT(repeats, 0u);
  // Some grid deadline must be feasible, so the check covers the numeric
  // barrier route and not only the chain's closed form.
  std::size_t grid_keys = 0;
  for (const auto& [key, solution] : first_answer) {
    grid_keys += key.rfind("grid@", 0) == 0 ? 1 : 0;
  }
  EXPECT_GT(grid_keys, 0u);
}

TEST(ConcurrencyStress, SolutionCacheHammer) {
  constexpr std::size_t kMaxEntries = 16;
  constexpr std::size_t kMaxBytes = 6000;
  re::SolutionCache cache(re::CacheLimits{kMaxEntries, kMaxBytes});
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  constexpr int kKeys = 64;  // 4x the entry cap: steady-state eviction

  // Keys of mixed lengths (empty, short, instance-key sized) that differ
  // only in their last bytes: the byte cap binds whenever long keys pile
  // up, so evictions (and the index's backward-shift deletions) come
  // from both caps. Each key has its own answer, so a hit that returned
  // another key's entry would show.
  std::vector<std::string> keys;
  std::vector<rc::Solution> answers;
  constexpr std::size_t kPads[] = {0, 8, 400, 400};
  for (int k = 0; k < kKeys; ++k) {
    keys.push_back(k == 0 ? std::string()
                          : std::string(kPads[k % 4], 'k') + std::to_string(k));
    rc::Solution solution;
    solution.feasible = true;
    solution.energy = static_cast<double>(k);
    solution.speeds.assign(1 + k % 5, 1.0);
    solution.method = "stress-" + std::to_string(k);
    answers.push_back(std::move(solution));
  }

  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    // Stats samples race against every get/put: the snapshot must stay
    // internally consistent (both caps hold unless one entry is left).
    while (!stop.load(std::memory_order_relaxed)) {
      const re::CacheStats s = cache.stats();
      EXPECT_LE(s.entries, kMaxEntries);
      EXPECT_TRUE(s.bytes <= kMaxBytes || s.entries == 1);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const int k = (i * (t + 1)) % kKeys;
        if (const auto hit = cache.get(keys[k])) {
          EXPECT_EQ(hit->method, answers[k].method);
          EXPECT_EQ(hit->speeds.size(), answers[k].speeds.size());
        } else {
          cache.put(keys[k], answers[k]);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  sampler.join();

  const re::CacheStats s = cache.stats();
  EXPECT_LE(s.entries, kMaxEntries);
  EXPECT_TRUE(s.bytes <= kMaxBytes || s.entries == 1);
  EXPECT_EQ(s.hits + s.misses, kThreads * static_cast<std::uint64_t>(kOps));
  EXPECT_GT(s.evictions, 0u);
  // Every resident key still answers its own solution.
  for (int k = 0; k < kKeys; ++k) {
    if (const auto hit = cache.get(keys[k])) {
      EXPECT_EQ(hit->method, answers[k].method);
    }
  }
}

TEST(ConcurrencyStress, ThreadPoolChurn) {
  // Construct, load, and destroy pools in a loop: the submit/worker_loop
  // handshake and the stopping drain run under TSan every iteration.
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> counter{0};
    {
      ru::ThreadPool pool(3);
      for (int i = 0; i < 64; ++i) {
        (void)pool.submit([&] { counter.fetch_add(1); });
      }
      std::vector<std::future<void>> waited;
      for (int i = 0; i < 64; ++i) {
        waited.push_back(pool.submit([&] { counter.fetch_add(1); }));
      }
      for (auto& f : waited) f.get();
    }  // destructor drains the queue before joining
    EXPECT_EQ(counter.load(), 128);
  }
}

TEST(ConcurrencyStress, SharedGraphCopiesMutateIndependently) {
  // Copies of one graph share its structure; a mutation copies it first.
  // Every thread copies the shared graph and mutates its copy while the
  // other threads read the original and their own copies, so the
  // structure's reference count and the copy-before-write test race
  // against each other's reads.
  ru::Rng rng(21);
  const rg::Digraph original = rg::make_fork_join_chain(3, 4, rng);
  const std::size_t n = original.num_nodes();
  const std::size_t m = original.num_edges();
  const auto edges = original.edges();
  constexpr int kThreads = 4;
  constexpr int kRounds = 300;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        rg::Digraph copy = original;
        const rg::Digraph reader = copy;  // shares until copy mutates
        EXPECT_TRUE(copy.same_topology(original));
        copy.set_weight(0, 1.0 + t);
        const rg::NodeId extra = copy.add_node(2.0, "extra");
        copy.add_edge(0, extra);
        copy.set_name(1, "thread" + std::to_string(t));
        EXPECT_FALSE(copy.same_topology(original));
        EXPECT_EQ(copy.num_edges(), m + 1);
        EXPECT_EQ(copy.successors(0).back(), extra);
        EXPECT_EQ(copy.name(1), "thread" + std::to_string(t));
        // The original and the untouched copy read as before.
        EXPECT_TRUE(reader.same_topology(original));
        EXPECT_EQ(reader.edges(), edges);
        EXPECT_EQ(original.num_nodes(), n);
        EXPECT_EQ(original.edges(), edges);
        EXPECT_NE(original.name(1), copy.name(1));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(original.num_edges(), m);
  EXPECT_EQ(original.edges(), edges);
}
