#include <algorithm>
#include <map>
#include <string>

#include "check.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

CallTimes::CallTimes(std::size_t calls) {
  for (auto& times : times_) times.resize(calls);
}

void CallTimes::add(std::size_t call, std::size_t pass, double scaled_s,
                    double wall_s, std::size_t answers) {
  times_[spans_on(pass) ? 0 : 1][call].push_back(scaled_s);
  wall_s_ += wall_s;
  wall_answers_ += static_cast<double>(answers);
}

std::vector<double> CallTimes::ms() const {
  std::vector<double> out(times_[0].size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> all = times_[0][i];
    all.insert(all.end(), times_[1][i].begin(), times_[1][i].end());
    out[i] = 1e3 * median(std::move(all));
  }
  return out;
}

double CallTimes::total_s() const {
  double total = 0.0;
  for (const double ms : this->ms()) total += 1e-3 * ms;
  return total;
}

double CallTimes::span_overhead_pct() const {
  double sums[2] = {0.0, 0.0};
  for (int k = 0; k < 2; ++k) {
    for (const auto& times : times_[k]) {
      if (times.empty()) return 0.0;
      sums[k] += median(times);
    }
  }
  return sums[1] > 0.0 ? 100.0 * (sums[0] / sums[1] - 1.0) : 0.0;
}

double CallTimes::wall_rate() const {
  return wall_s_ > 0.0 ? wall_answers_ / wall_s_ : 0.0;
}

void emit_end_to_end(const Timed& timed, Report& report) {
  if (timed.wall_rate > 0.0) {
    report.note("wall clock of the timed calls: " + fmt(timed.wall_rate, 1) +
                " inst/s over every pass, unscaled; the reference kernel ran"
                " at " + fmt(timed.slowdown, 3) +
                "x its nominal time (the metrics are scaled to nominal)");
  }
  report.set("throughput_inst_s", timed.throughput, "inst/s");
  report.set("latency_p50_ms", quantile(timed.latency_ms, 0.5), "ms");
  std::string label;
  report.set("latency_tail_ms", supported_tail(timed.latency_ms, &label), "ms");
  report.note("latency_tail_ms is " + label + " of " +
              std::to_string(timed.latency_ms.size()) + " samples");
  report.note("setup_s is the median of " +
              std::to_string(timed.setup_s.size()) + " set-ups" +
              (timed.setup_raw_s.empty()
                   ? std::string()
                   : " (unscaled " + fmt(median(timed.setup_raw_s), 6) +
                         " s)"));
  report.set("setup_s", median(timed.setup_s), "s");
  report.set("peak_rss_mb", peak_rss_mib(), "MiB");
}

void emit_verdict(const Checker& checker, std::uint64_t attempted,
                  Report& report) {
  report.attempted = std::max<std::uint64_t>(attempted, 1);
  report.failed = checker.failures();
  report.correct = report.failed == 0;
  for (const auto& error : checker.first_errors()) {
    report.note("WRONG " + error);
  }
  report.note("checked " + std::to_string(checker.checked()) +
              " answers, compared " + std::to_string(checker.compared()) +
              " bit for bit (with the reference route, or a repeat pass with"
              " the first); error_rate " +
              fmt(static_cast<double>(report.failed) /
                      static_cast<double>(report.attempted),
                  6) +
              " fraction (" + std::to_string(report.failed) + "/" +
              std::to_string(report.attempted) + ")");
}

void emit_per_layer(const Args& args, Layers& layers, double overhead_pct,
                    Report& report) {
  layers.cholesky_probe(args.seed, args.tiny);
  layers.set("bench.trace_overhead_pct", overhead_pct);
  layers.emit(report);

  Tracer& tracer = Tracer::get();
  const double wall = seconds_since(args.start);
  const double traced = tracer.main_thread_self_s();
  report.note("stage self times sum to " + fmt(traced, 3) + " s of " +
              fmt(wall, 3) + " s traced wall time (" +
              fmt(100.0 * traced / wall, 1) + "%)");
  // Where the main thread's traced time went, by layer prefix (client
  // threads' request spans overlap, so they stay out of the sum).
  std::map<std::string, double> by_layer;
  double total = 0.0;
  for (const auto& [name, stats] : tracer.by_name(true)) {
    const auto dot = name.find('.');
    std::string layer = name.substr(0, dot);
    if (layer == "core") layer = name;  // per family
    by_layer[layer] += stats.self_s;
    total += stats.self_s;
  }
  for (const auto& [layer, s] : by_layer) {
    report.note("self time " + layer + ": " + fmt(s, 3) + " s (" +
                fmt(total > 0.0 ? 100.0 * s / total : 0.0, 1) + "%)");
  }
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  tracer.write(path);
  report.note("spans written to " + path);
}

}  // namespace perfbench
