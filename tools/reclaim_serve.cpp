// reclaim_serve — the MinEnergy solvers as a long-running service.
//
// Listens on a Unix-domain socket (or speaks the protocol over
// stdin/stdout with --stdio), decodes SOLVE requests into mapped
// instances and shards them onto one shared ReclaimEngine: every client
// that ever connects hits the same solution memo and shape cache, so a
// fleet of short-lived clients gets the warm-cache throughput a single
// long batch run would. See docs/serve_protocol.md for the wire format
// and docs/cli.md for the flags.
//
//   reclaim_serve --socket /tmp/reclaim.sock --threads 8 --memo-mb 64
//   reclaim_serve --stdio            # one connection on stdin/stdout
//
// SIGINT/SIGTERM stop accepting; in-flight solves drain before exit. A
// stats line (uptime, clients, requests, memo hit rate, cache footprint)
// goes to stderr every --stats-interval seconds.
#include <csignal>
#include <iostream>

#include "net/server.hpp"
#include "tool_common.hpp"

namespace {

using namespace reclaim;
using namespace reclaim::tools;

net::ReclaimServer* g_server = nullptr;

// Async-signal-safe: ReclaimServer::shutdown is an atomic store plus
// ::shutdown(2) on the listen socket.
void on_signal(int) {
  if (g_server != nullptr) g_server->shutdown();
}

// Keep in sync with docs/cli.md — CI's docs-check cross-references every
// --flag printed here against that page.
int cmd_help() {
  std::cout <<
      R"(usage: reclaim_serve [--option value | --flag]...

transport (pick one):
  --socket <path>        listen on a Unix-domain socket
                         [default /tmp/reclaim_serve.sock]
  --stdio                serve one connection on stdin/stdout and exit

engine:
  --threads <t>          solver worker threads        [default: cores]
  --memo-entries <n>     solution-memo entry cap      [default 65536]
  --memo-mb <m>          solution-memo byte cap, MiB  [default 64; 0 = off]

service:
  --stats-interval <s>   seconds between stats lines on stderr
                         [default 10; 0 = quiet]
  --leakage <mode>       exact | reduction applied to every request's
                         continuous solves            [default reduction]
  --joint-sleep          route every request's sleep-enabled continuous
                         solves through the joint speed + power-down
                         refinement instead of the post-hoc race
  --help                 this text
)";
  return 0;
}

int run(const Args& args) {
  net::ServerOptions options;
  options.engine.threads = args.count_or("threads", 0);
  options.engine.memo_capacity = args.count_or("memo-entries", 1 << 16);
  options.engine.memo_bytes = args.count_or("memo-mb", 64) << 20;
  options.solve = parse_solve_options(args);
  options.stats_log_interval_s = args.number_or("stats-interval", 10.0);
  options.log = &std::cerr;

  net::ReclaimServer server(options);
  g_server = &server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  if (args.flag("stdio")) {
    if (args.get("socket")) {
      throw InvalidArgument("--stdio and --socket are mutually exclusive");
    }
    server.serve_stream(/*in_fd=*/0, /*out_fd=*/1);
  } else {
    const std::string path =
        args.get("socket").value_or("/tmp/reclaim_serve.sock");
    std::cerr << "reclaim_serve: listening on " << path << " with "
              << server.engine().threads() << " solver threads\n";
    server.serve_unix(path);
  }
  std::cerr << server.stats_line() << '\n';
  g_server = nullptr;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args;  // bare `reclaim_serve` runs with the defaults
    if (argc >= 2) {
      args = parse_args(argc, argv, "usage: reclaim_serve [--opt value]...",
                        /*valueless=*/{"stdio", "joint-sleep"});
    }
    if (args.command == "help") return cmd_help();
    if (!args.command.empty()) {
      throw InvalidArgument("reclaim_serve takes no command word, got '" +
                            args.command + "'");
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
