// reclaim_client — fire solve requests at a running reclaim_serve.
//
// Builds the same instances reclaim_cli would (same graph/model/platform
// flags, same list scheduler, same slack-derived deadlines), but instead
// of solving in-process it ships them over the serve protocol and
// pipelines: every request is written without waiting, a reader thread
// collects the responses in whatever order the server finishes them, and
// the table is re-assembled in request order at the end. --repeat
// resubmits the batch to demonstrate the daemon's shared memo (the second
// round is answered from cache — watch the hit rate with --stats).
//
//   reclaim_serve --socket /tmp/r.sock &
//   reclaim_client --socket /tmp/r.sock --batch jobs.list
//       --model continuous --repeat 10 --stats
//
// See docs/cli.md for the flags and docs/serve_protocol.md for the wire
// format.
#include <atomic>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "util/annotated_mutex.hpp"
#include "tool_common.hpp"
#include "util/timer.hpp"

namespace {

using namespace reclaim;
using namespace reclaim::tools;

// Keep in sync with docs/cli.md — CI's docs-check cross-references every
// --flag printed here against that page.
int cmd_help() {
  std::cout <<
      R"(usage: reclaim_client [--option value | --flag]...

connection:
  --socket <path>        reclaim_serve socket [default /tmp/reclaim_serve.sock]
  --ping                 round-trip a PING and exit
  --stats                after the solves, query and print server stats

workload (same flags as reclaim_cli solve):
  --graph <file>         one task-graph file
  --batch <file>         batch list: one "graph-file [deadline]" per line
  --repeat <n>           send the workload n times     [default 1]
  --deadline <D>         common deadline (batch lines may override)
  --slack <x>            deadline = x * D_min(graph)   [default 1.5]
  --model <name>         continuous | vdd | discrete | incremental
  --smax / --smin / --delta / --modes     model parameters
  --alpha <a>            power exponent                [default 3]
  --static-power <P>     leakage term                  [default 0]
  --leakage <mode>       exact | reduction             [default reduction]
  --idle-power / --sleep-power / --wake-cost           power-down spec
  --platform <file>      heterogeneous platform file
  --processors <p>       processors for list scheduling [default 1]
  --mapping <file>       explicit mapping (skips the list scheduler)
  --csv <1>              output as CSV instead of a table
  --help                 this text

exit status: 0 all feasible, 2 infeasible or rejected requests, 1 error.
)";
  return 0;
}

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream in(path);
  if (!in) throw InvalidArgument("cannot open " + what + " '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// One request plus where its answer goes in the output table.
struct Slot {
  std::string name;
  double deadline = 0.0;
  core::Solution solution;          // valid when `error` is empty
  std::string error;                // ERROR reply message
  bool answered = false;
};

/// The workload: every SOLVE body to send, in order (already repeated).
std::vector<Slot> build_slots(const Args& args, net::SolveRequest& base,
                              std::vector<net::SolveRequest>& requests) {
  const auto energy_model = parse_model(args);
  const auto platform = parse_platform(args);
  const auto processors = processor_count(args, platform);
  const double slack = args.number_or("slack", 1.5);
  std::optional<double> fixed_deadline;
  if (args.get("deadline")) fixed_deadline = args.number("deadline");

  base.model = energy_model;
  base.leakage = parse_solve_options(args).leakage;
  base.processors = static_cast<std::uint32_t>(processors);
  if (platform) {
    base.platform = platform->specs();
  } else {
    base.alpha = args.number_or("alpha", 3.0);
    base.p_static = args.number_or("static-power", 0.0);
    base.sleep = parse_sleep(args);
  }

  // Graph paths (+ optional per-line deadline), exactly reclaim_cli's
  // batch format.
  std::vector<std::pair<std::string, std::optional<double>>> files;
  if (const auto graph = args.get("graph")) {
    files.emplace_back(*graph, fixed_deadline);
  } else {
    const std::string list_path = args.require("batch");
    std::ifstream list(list_path);
    if (!list)
      throw InvalidArgument("cannot open batch file '" + list_path + "'");
    std::string line;
    while (std::getline(list, line)) {
      std::istringstream is(line);
      std::string path;
      if (!(is >> path) || path.front() == '#') continue;
      std::string deadline_token;
      is >> deadline_token;
      std::optional<double> deadline = fixed_deadline;
      if (!deadline_token.empty() && deadline_token.front() != '#') {
        deadline = std::stod(deadline_token);
      }
      files.emplace_back(path, deadline);
    }
    util::require(!files.empty(), "batch file lists no graphs");
  }

  std::vector<Slot> slots;
  for (const auto& [path, deadline_opt] : files) {
    net::SolveRequest request = base;
    request.graph_text = read_file(path, "graph file");
    const auto app = io::read_task_graph_from_string(request.graph_text);
    auto [exec, mapping] = mapped_exec(args, app, processors);
    std::ostringstream mapping_text;
    io::write_mapping(mapping_text, mapping, app);
    request.mapping_text = mapping_text.str();

    double deadline = 0.0;
    if (deadline_opt) {
      deadline = *deadline_opt;
    } else {
      const double s_ref = model::max_speed(energy_model);
      util::require(std::isfinite(s_ref),
                    "without --deadline the model needs a finite top speed "
                    "(--smax) to apply --slack");
      deadline = slack * core::min_deadline(exec, s_ref);
    }
    request.deadline = deadline;

    Slot slot;
    slot.name = path;
    slot.deadline = deadline;
    slots.push_back(slot);
    requests.push_back(std::move(request));
  }

  const std::size_t repeat = args.count_or("repeat", 1);
  util::require(repeat >= 1, "--repeat must be >= 1");
  const std::size_t base_count = slots.size();
  for (std::size_t r = 1; r < repeat; ++r) {
    for (std::size_t i = 0; i < base_count; ++i) {
      slots.push_back(slots[i]);
      requests.push_back(requests[i]);
    }
  }
  return slots;
}

void print_server_stats(const net::StatsReply& stats) {
  std::cerr << "server: up "
            << util::Table::fmt(
                   static_cast<double>(stats.uptime_ms) / 1000.0, 1)
            << "s, " << stats.clients_active << "/" << stats.clients_connected
            << " clients, " << stats.requests << " requests -> "
            << stats.results << " results + " << stats.errors << " errors\n"
            << "shared memo: " << stats.memo_hits << "/" << stats.instances
            << " hits (" << util::Table::fmt(100.0 * stats.hit_rate(), 1)
            << "%), " << stats.memo_entries << " entries, "
            << util::Table::fmt(
                   static_cast<double>(stats.memo_bytes) / 1024.0, 1)
            << " KiB, " << stats.memo_evictions << " evictions\n"
            << "fast path: " << stats.kernel_solves << " kernel solves ("
            << stats.kernel_single << " single, " << stats.kernel_chain
            << " chain, " << stats.kernel_fork << " fork, " << stats.kernel_tree
            << " tree, " << stats.kernel_sp << " sp)\n"
            << "joint sleep: " << stats.joint_improved << "/"
            << stats.joint_solves << " solves improved on the race anchor\n";
  for (const auto& client : stats.clients) {
    std::cerr << "  client " << client.id << ": " << client.requests
              << " requests, " << client.results << " results, "
              << client.errors << " errors\n";
  }
}

int run(const Args& args) {
  const std::string socket_path =
      args.get("socket").value_or("/tmp/reclaim_serve.sock");
  auto client = net::ServeClient::connect_unix(socket_path);

  if (args.flag("ping")) {
    util::Timer timer;
    client.send_ping();
    const auto reply = client.read_message();
    util::require(reply.has_value() &&
                      std::holds_alternative<net::Pong>(reply->body),
                  "expected a PONG");
    std::cout << "pong in " << util::Table::fmt(timer.seconds() * 1e3, 2)
              << " ms\n";
    return 0;
  }

  net::SolveRequest base;
  std::vector<net::SolveRequest> requests;
  std::vector<Slot> slots = build_slots(args, base, requests);

  // Pipelined: the reader starts before the first request goes out, so a
  // full socket buffer can never deadlock writer against server. The
  // id -> slot map is filled under the same lock send_solve holds
  // internally... not quite: send and map-insert must be atomic together,
  // hence this mutex around both.
  reclaim::util::Mutex id_mutex;
  std::map<std::uint64_t, std::size_t> id_to_slot;
  std::atomic<std::size_t> answered{0};
  std::size_t out_of_order = 0;
  std::string transport_error;

  util::Timer timer;
  std::thread reader([&] {
    std::uint64_t last_id = 0;
    try {
      while (answered.load(std::memory_order_relaxed) < slots.size()) {
        const auto message = client.read_message();
        if (!message) {
          transport_error = "server closed the connection early";
          return;
        }
        std::size_t slot_index = 0;
        {
          const reclaim::util::MutexLock lock(id_mutex);
          const auto it = id_to_slot.find(message->id);
          if (it == id_to_slot.end()) {
            transport_error = "reply for unknown request id " +
                              std::to_string(message->id);
            return;
          }
          slot_index = it->second;
        }
        Slot& slot = slots[slot_index];
        if (const auto* result =
                std::get_if<net::SolveResult>(&message->body)) {
          slot.solution = result->solution;
        } else if (const auto* error =
                       std::get_if<net::ErrorReply>(&message->body)) {
          slot.error = std::string(net::to_string(error->code)) + ": " +
                       error->message;
        } else {
          transport_error = "unexpected reply type";
          return;
        }
        slot.answered = true;
        // Completion order vs submission order: ids are monotonic, so an
        // id below the previous reply's means a later-submitted instance
        // finished first.
        if (message->id < last_id) ++out_of_order;
        last_id = message->id;
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception& e) {
      transport_error = e.what();
    }
  });

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const reclaim::util::MutexLock lock(id_mutex);
    const std::uint64_t id = client.send_solve(requests[i]);
    id_to_slot.emplace(id, i);
  }
  reader.join();
  const double seconds = timer.seconds();
  if (!transport_error.empty()) {
    throw Error("transport: " + transport_error);
  }

  util::Table table("Served batch via " + socket_path,
                    {"graph", "deadline", "solver", "energy", "status"});
  std::size_t feasible = 0;
  std::size_t rejected = 0;
  for (const auto& slot : slots) {
    if (!slot.error.empty()) {
      ++rejected;
      table.add_row({slot.name, util::Table::fmt(slot.deadline, 4), "-", "-",
                     slot.error});
      continue;
    }
    feasible += slot.solution.feasible ? 1 : 0;
    table.add_row({slot.name, util::Table::fmt(slot.deadline, 4),
                   slot.solution.method,
                   slot.solution.feasible
                       ? util::Table::fmt(slot.solution.energy, 4)
                       : "-",
                   slot.solution.feasible ? "ok" : "infeasible"});
  }
  if (args.get("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cerr << "served " << slots.size() << " instances in "
            << util::Table::fmt(seconds, 4) << "s ("
            << util::Table::fmt(static_cast<double>(slots.size()) / seconds,
                                1)
            << " inst/s), " << out_of_order
            << " out-of-order completions\n";

  if (args.flag("stats")) {
    client.send_stats();
    const auto reply = client.read_message();
    util::require(reply.has_value() &&
                      std::holds_alternative<net::StatsReply>(reply->body),
                  "expected a STATS_REPLY");
    print_server_stats(std::get<net::StatsReply>(reply->body));
  }
  return (feasible == slots.size() && rejected == 0) ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args;
    if (argc >= 2) {
      args = parse_args(argc, argv, "usage: reclaim_client [--opt value]...",
                        /*valueless=*/{"ping", "stats"});
    }
    if (args.command == "help" || argc < 2) return cmd_help();
    if (!args.command.empty()) {
      throw InvalidArgument("reclaim_client takes no command word, got '" +
                            args.command + "'");
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
