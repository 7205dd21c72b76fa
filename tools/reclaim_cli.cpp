// reclaim_cli — drive the MinEnergy solvers from the command line.
//
// Subcommands:
//   solve     --graph <file> --deadline <D> --model <name> [options]
//   solve     --batch <list> --model <name> [--slack S | --deadline D]
//             [--threads t] [--csv 1]       (batch mode via ReclaimEngine)
//   classify  --graph <file>
//   schedule  --graph <file> --processors <p>      (emit a mapping)
//   dot       --graph <file>                       (Graphviz export)
//
// Models: continuous (--smax), vdd / discrete (--modes "0.5,1.0,2.0"),
// incremental (--smin --smax --delta). The power model is s^alpha
// (--alpha, default 3) plus optional leakage --static-power P, which
// solves under P(s) = P + s^alpha (busy leakage; speeds clamp at the
// critical speed). --leakage exact|reduction picks how the continuous
// solver treats that static term: the s_crit reduction (default) or the
// exact duration-charged objective, which is never more expensive and
// strictly cheaper on slack-bearing parallel shapes and mixed-P_stat
// chains (DESIGN.md, "Exact leaky solver"). Power-down states are enabled
// by --idle-power,
// --sleep-power and --wake-cost: idle gaps are charged
// min(P_idle * L, P_sleep * L + E_wake) over the deadline window, the
// energy report splits busy vs idle, and the continuous model runs the
// race-to-idle layer (crawl vs uniformly faster schedules, cheaper wins).
// The mapping is either supplied (--mapping <file>) or generated by the
// list scheduler (--processors p, default 1).
//
// Heterogeneous platforms: --platform <file> describes one processor per
// line as "alpha,p_static,s_max[,idle,sleep,wake]" ('#' comments; s_max
// may be "inf"). The processor count is the line count (a given
// --processors must agree), each task is charged its own processor's
// power curve and capped at its speed limit, and batch output gains a
// per-processor busy-energy column. --platform replaces the uniform
// power flags (--alpha/--static-power/--idle-power/--sleep-power/
// --wake-cost are rejected alongside it). Example:
//
//   reclaim_cli solve --graph app.tg --deadline 12 --model discrete
//       --modes "0.5,1.0,2.0" --processors 2
//
// Batch mode: the list file names one task-graph file per line, with an
// optional per-line deadline ('#' comments allowed):
//
//   # graph-file [deadline]
//   jobs/cholesky.tg 14.5
//   jobs/fft.tg
//
// Lines without a deadline use --deadline, or --slack x D_min(graph) at
// the model's top speed (default slack 1.5). All graphs are solved in one
// ReclaimEngine batch sharded over --threads workers.
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <variant>
#include <vector>

#include "io/graph_io.hpp"
#include "reclaim.hpp"
#include "tool_common.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace {

using namespace reclaim;
using namespace reclaim::tools;

int cmd_solve_batch(const Args& args) {
  const auto energy_model = parse_model(args);
  const auto platform = parse_platform(args);
  const auto power =
      platform ? model::PowerModel{}
               : model::make_power_model(args.number_or("alpha", 3.0),
                                         args.number_or("static-power", 0.0),
                                         parse_sleep(args));
  const auto processors = processor_count(args, platform);
  const double slack = args.number_or("slack", 1.5);
  std::optional<double> fixed_deadline;
  if (args.get("deadline")) fixed_deadline = args.number("deadline");

  const std::string list_path = args.require("batch");
  std::ifstream list(list_path);
  if (!list) throw InvalidArgument("cannot open batch file '" + list_path + "'");

  std::vector<std::string> names;
  std::vector<engine::MappedInstance> instances;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(list, line)) {
    ++line_no;
    std::istringstream is(line);
    std::string path;
    if (!(is >> path) || path.front() == '#') continue;
    std::ifstream gin(path);
    if (!gin)
      throw InvalidArgument("batch line " + std::to_string(line_no) +
                            ": cannot open graph file '" + path + "'");
    const auto app = io::read_task_graph(gin);
    auto [exec, mapping] = mapped_exec(args, app, processors);
    std::string deadline_token, extra;
    is >> deadline_token;
    if (deadline_token.starts_with('#')) deadline_token.clear();  // comment
    else if (is >> extra && !extra.starts_with('#')) {
      throw InvalidArgument("batch line " + std::to_string(line_no) +
                            ": expected '<graph-file> [deadline]', got extra "
                            "token '" + extra + "'");
    }
    double deadline = 0.0;
    if (!deadline_token.empty()) {
      std::size_t parsed = 0;
      try {
        deadline = std::stod(deadline_token, &parsed);
      } catch (const std::exception&) {
        parsed = 0;
      }
      if (parsed != deadline_token.size()) {
        throw InvalidArgument("batch line " + std::to_string(line_no) +
                              ": deadline expects a number, got '" +
                              deadline_token + "'");
      }
    } else if (fixed_deadline) {
      deadline = *fixed_deadline;
    } else {
      // --slack is relative to the *execution* graph's minimum deadline
      // (chaining edges lengthen the critical path beyond the app graph's).
      const double s_ref = model::max_speed(energy_model);
      util::require(std::isfinite(s_ref),
                    "batch without deadlines needs a finite top speed "
                    "(--smax) to apply --slack");
      deadline = slack * core::min_deadline(exec, s_ref);
    }
    names.push_back(path);
    instances.push_back(
        {make_cli_instance(std::move(exec), deadline, platform, power, mapping),
         std::move(mapping)});
  }
  util::require(!instances.empty(), "batch file lists no graphs");

  engine::EngineOptions engine_options;
  engine_options.threads = args.count_or("threads", 0);
  engine::ReclaimEngine engine(engine_options);

  util::Timer timer;
  // The mapped overload: sleep-enabled continuous instances get the
  // engine-integrated race-to-idle route, everything else the plain one.
  const auto solutions =
      engine.solve_batch(instances, energy_model, parse_solve_options(args));
  const double seconds = timer.seconds();

  const model::Platform& plat = instances.front().instance.platform;
  const bool sleeping = plat.has_sleep();
  const bool per_proc = plat.size() > 1;
  std::vector<std::string> columns = {"graph",  "tasks",   "deadline",
                                      "solver", "energy",  "leakage",
                                      "status"};
  if (per_proc) {
    // Per-processor busy-energy split (slash-separated, processor order).
    columns.insert(columns.begin() + 5, "per-proc");
  }
  if (sleeping) {
    // Whole-platform accounting columns (busy energy + idle-gap charges).
    columns.insert(columns.end() - 1, {"idle", "platform"});
  }
  util::Table table("Batch solve: " + model::model_name(energy_model) +
                        " under P(s) = " + plat.name(),
                    columns);
  std::size_t feasible = 0;
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    const auto& s = solutions[i];
    const auto& instance = instances[i].instance;
    feasible += s.feasible ? 1 : 0;
    // Derived columns only exist for feasible rows (leakage_energy and
    // platform_energy require feasibility); infeasible instances render
    // as "-" and must never abort the rest of the batch.
    // Leakage share of the energy column: sum of P_stat * busy time over
    // the processors (zero under pure power laws).
    std::vector<std::string> row = {
        names[i], util::Table::fmt(instance.exec_graph.num_nodes()),
        util::Table::fmt(instance.deadline, 4), s.method,
        s.feasible ? util::Table::fmt(s.energy, 4) : "-",
        s.feasible ? util::Table::fmt(core::leakage_energy(instance, s), 4)
                   : "-",
        s.feasible ? "ok" : "infeasible"};
    if (per_proc) {
      std::string split = "-";
      if (s.feasible) {
        split.clear();
        for (double e : core::per_processor_energy(instance, s)) {
          if (!split.empty()) split += '/';
          split += util::Table::fmt(e, 4);
        }
      }
      row.insert(row.begin() + 5, std::move(split));
    }
    if (sleeping) {
      const auto split = s.feasible
                             ? core::platform_energy(instance, s,
                                                     instances[i].mapping)
                             : core::PlatformEnergy{};
      row.insert(row.end() - 1,
                 {s.feasible ? util::Table::fmt(split.idle, 4) : "-",
                  s.feasible ? util::Table::fmt(split.total(), 4) : "-"});
    }
    table.add_row(std::move(row));
  }
  if (args.get("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  const auto stats = engine.stats();
  std::cerr << "solved " << solutions.size() << " instances in "
            << util::Table::fmt(seconds, 4) << "s ("
            << util::Table::fmt(static_cast<double>(solutions.size()) / seconds, 1)
            << " inst/s) on " << engine.threads() << " threads; "
            << stats.memo_hits << " memo hits, " << stats.shape_hits
            << " dispatch-cache hits";
  if (stats.raced_solves + stats.crawl_solves > 0) {
    std::cerr << "; race-to-idle won " << stats.raced_solves << " of "
              << (stats.raced_solves + stats.crawl_solves)
              << " sleep-routed solves";
  }
  if (stats.joint_solves > 0) {
    std::cerr << "; joint-sleep improved " << stats.joint_improved << " of "
              << stats.joint_solves << " solves";
  }
  if (stats.kernel_solves > 0) {
    std::cerr << "; fast path " << stats.kernel_solves << " kernel ("
              << stats.kernel_single << " single, " << stats.kernel_chain
              << " chain, " << stats.kernel_fork << " fork, "
              << stats.kernel_tree << " tree, " << stats.kernel_sp << " sp)";
  }
  std::cerr << "\n";
  return feasible == solutions.size() ? 0 : 2;
}

int cmd_solve(const Args& args) {
  if (args.get("batch")) return cmd_solve_batch(args);

  const auto app = load_graph(args);
  const double deadline = args.number("deadline");
  const auto platform = parse_platform(args);
  const auto power =
      platform ? model::PowerModel{}
               : model::make_power_model(args.number_or("alpha", 3.0),
                                         args.number_or("static-power", 0.0),
                                         parse_sleep(args));
  auto [exec, mapping] =
      mapped_exec(args, app, processor_count(args, platform));
  auto instance =
      make_cli_instance(std::move(exec), deadline, platform, power, mapping);
  const auto energy_model = parse_model(args);
  const auto solve_options = parse_solve_options(args);

  // The refiners are called here, not through core::solve, for the
  // crawl / race / joint split they report.
  const bool priced =
      core::prices_mapping(instance, energy_model, solve_options);
  core::Solution solution;
  if (priced && solve_options.sleep_mode == core::SleepMode::kJoint) {
    // Continuous + power-down under --joint-sleep: per-gap sleep/idle/
    // crawl decisions refined on top of the race-to-idle anchor.
    core::JointSleepOptions joint;
    joint.race.continuous.leakage = solve_options.leakage;
    const auto r = core::solve_joint_sleep(
        instance, std::get<model::ContinuousModel>(energy_model), mapping,
        joint);
    solution = r.solution;
    if (solution.feasible) {
      std::cerr << "platform energy: race " << util::Table::fmt(r.race.total(), 4)
                << " (busy " << util::Table::fmt(r.race.busy, 4) << " + idle "
                << util::Table::fmt(r.race.idle, 4) << ")";
      if (r.improved) {
        std::size_t sleeping_gaps = 0;
        for (const auto& gap : r.gaps) {
          if (gap.state == core::GapState::kSleep) ++sleeping_gaps;
        }
        std::cerr << " -> joint " << util::Table::fmt(r.chosen.total(), 4)
                  << " (busy " << util::Table::fmt(r.chosen.busy, 4)
                  << " + idle " << util::Table::fmt(r.chosen.idle, 4) << "; "
                  << r.gaps.size() << " gaps, " << sleeping_gaps
                  << " sleeping, " << r.absorbed << " absorbed)";
      } else {
        std::cerr << "; the race anchor is optimal over the joint moves";
      }
      std::cerr << "\n";
    }
  } else if (priced) {
    // Continuous + power-down: run the race-to-idle layer (crawl vs
    // uniformly faster schedules under whole-platform accounting).
    core::RaceToIdleOptions race;
    race.continuous.leakage = solve_options.leakage;
    const auto r = core::solve_race_to_idle(
        instance, std::get<model::ContinuousModel>(energy_model), mapping,
        race);
    solution = r.solution;
    if (solution.feasible) {
      std::cerr << "platform energy: crawl " << util::Table::fmt(r.crawl.total(), 4)
                << " (busy " << util::Table::fmt(r.crawl.busy, 4) << " + idle "
                << util::Table::fmt(r.crawl.idle, 4) << ")";
      if (r.raced) {
        std::cerr << " -> raced x" << util::Table::fmt(r.speedup, 4) << " to "
                  << util::Table::fmt(r.chosen.total(), 4) << " (busy "
                  << util::Table::fmt(r.chosen.busy, 4) << " + idle "
                  << util::Table::fmt(r.chosen.idle, 4) << ")";
      } else {
        std::cerr << "; crawl is optimal over the probed speed-ups";
      }
      std::cerr << "\n";
    }
  } else {
    solution = core::solve(instance, energy_model, solve_options);
    if (solution.feasible && instance.platform.has_sleep()) {
      const auto split = core::platform_energy(instance, solution, mapping);
      std::cerr << "platform energy: " << util::Table::fmt(split.total(), 4)
                << " (busy " << util::Table::fmt(split.busy, 4) << " + idle "
                << util::Table::fmt(split.idle, 4) << ")\n";
    }
  }
  std::cerr << "model " << model::model_name(energy_model) << ", power P(s) = "
            << instance.platform.name() << ", solver " << solution.method
            << "\n";
  io::write_solution(std::cout, instance, solution);
  return solution.feasible ? 0 : 2;
}

int cmd_classify(const Args& args) {
  const auto g = load_graph(args);
  std::cout << graph::to_string(graph::classify(g)) << '\n'
            << "tasks " << g.num_nodes() << '\n'
            << "edges " << g.num_edges() << '\n'
            << "critical-weight " << core::critical_weight(g) << '\n';
  return 0;
}

int cmd_schedule(const Args& args) {
  const auto g = load_graph(args);
  const auto processors = args.count_or("processors", 1);
  const auto result = sched::list_schedule(g, processors);
  std::cerr << "makespan " << result.makespan << " at unit speed\n";
  io::write_mapping(std::cout, result.mapping, g);
  return 0;
}

int cmd_dot(const Args& args) {
  std::cout << graph::to_dot(load_graph(args));
  return 0;
}

// Keep in sync with docs/cli.md — CI's docs-check cross-references every
// --flag printed here against that page.
int cmd_help() {
  std::cout <<
      R"(usage: reclaim_cli <command> [--option value]...

commands:
  solve      solve one instance (--graph) or a batch (--batch)
  classify   print a graph's structural class
  schedule   list-schedule a graph onto processors, emit the mapping
  dot        export a graph as Graphviz
  help       this text (also --help)

solve options:
  --graph <file>         task-graph file (io:: text format)
  --batch <file>         batch list: one "graph-file [deadline]" per line
  --deadline <D>         common deadline (batch lines may override)
  --slack <x>            batch deadline = x * D_min(graph)   [default 1.5]
  --model <name>         continuous | vdd | discrete | incremental
  --smax <s>             top speed (continuous, incremental)
  --smin <s>             bottom speed (incremental)
  --delta <d>            speed granularity (incremental)
  --modes <csv>          mode speeds, e.g. "0.5,1.0,2.0" (vdd, discrete)
  --alpha <a>            power exponent P(s) = s^alpha      [default 3]
  --static-power <P>     leakage term: P(s) = P + s^alpha   [default 0]
  --leakage <mode>       exact | reduction                  [default reduction]
  --idle-power <P>       idle-state power (enables power-down accounting)
  --sleep-power <P>      sleep-state power
  --wake-cost <E>        energy of one sleep -> busy transition
  --joint-sleep          joint speed + power-down refinement on top of the
                         race-to-idle anchor (continuous + sleep spec only)
  --platform <file>      heterogeneous platform, one processor per line:
                         "alpha,p_static,s_max[,idle,sleep,wake]"
  --processors <p>       processor count for list scheduling [default 1]
  --mapping <file>       explicit mapping (skips the list scheduler)
  --threads <t>          engine worker threads (batch)       [default: cores]
  --csv <1>              batch output as CSV instead of a table

schedule options: --graph, --processors
classify/dot options: --graph
)";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(
        argc, argv, "usage: reclaim_cli <command> [--opt value]...",
        /*valueless=*/{"joint-sleep"});
    if (args.command == "help") return cmd_help();
    if (args.command == "solve") return cmd_solve(args);
    if (args.command == "classify") return cmd_classify(args);
    if (args.command == "schedule") return cmd_schedule(args);
    if (args.command == "dot") return cmd_dot(args);
    throw reclaim::InvalidArgument("unknown command '" + args.command + "'");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
