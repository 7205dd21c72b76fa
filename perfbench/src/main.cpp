// perfbench: the repository's seeded end-to-end benchmark.
//
//   perfbench --workload sweep|dag|serve --seed N --seconds S --trace 0|1
//             [--serve-rate R] [--out-dir DIR] [--tiny] [--plant-wrong]
//
// Prints human-readable lines, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. perfbench/run.py builds this binary and passes the
// serve rate recorded in perfbench/workloads.json.
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") args.workload = value();
    else if (flag == "--seed") args.seed = std::stoull(value());
    else if (flag == "--seconds") args.seconds = std::stod(value());
    else if (flag == "--trace") args.trace = std::stoi(value()) != 0;
    else if (flag == "--serve-rate") args.serve_rate = std::stod(value());
    else if (flag == "--out-dir") args.out_dir = value();
    else if (flag == "--tiny") args.tiny = true;
    else if (flag == "--plant-wrong") args.plant_wrong = true;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.workload != "sweep" && args.workload != "dag" &&
      args.workload != "serve") {
    throw std::invalid_argument("--workload must be sweep, dag or serve");
  }
  if (args.workload == "serve" && !(args.serve_rate > 0.0)) {
    throw std::invalid_argument("serve needs --serve-rate > 0");
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return args;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.trace) Tracer::get().enable();
    const Report report = args.workload == "sweep" ? run_sweep(args)
                          : args.workload == "dag" ? run_dag(args)
                                                   : run_serve(args);
    std::cout << "workload " << args.workload << " seed " << args.seed
              << " seconds " << args.seconds << " trace " << args.trace
              << " threads " << hardware_threads() << "\n";
    for (const auto& line : report.lines) std::cout << line << "\n";
    for (const auto& [name, metric] : report.metrics) {
      std::cout << name << " " << number(metric.value) << " " << metric.unit
                << "\n";
    }
    std::ostringstream json;
    json << "{\"correct\": " << (report.correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : report.metrics) {
      json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
      first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
