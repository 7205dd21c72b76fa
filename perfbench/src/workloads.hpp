// The three workloads. Each generates its inputs from the seed before
// timing them, drives them through a public front door of the library
// (ReclaimEngine::solve_batch, or a ReclaimServer over a Unix socket),
// checks every answer, and fills a Report with the end-to-end metrics
// (untraced) or the per-layer metrics (traced).
#pragma once

#include <vector>

#include "common.hpp"
#include "engine/reclaim_engine.hpp"
#include "host_speed.hpp"
#include "layers.hpp"

namespace perfbench {

[[nodiscard]] Report run_sweep(const Args& args);
[[nodiscard]] Report run_dag(const Args& args);
[[nodiscard]] Report run_serve(const Args& args);

/// One-thread engine options for sweep and dag. The call then runs on the
/// caller's thread, and its process CPU time is its wall time on a
/// dedicated core: time the host steals from the VM's vCPUs is not in it.
[[nodiscard]] inline reclaim::engine::EngineOptions timed_engine_options() {
  reclaim::engine::EngineOptions options;
  options.threads = 1;
  return options;
}

/// What a workload measured for the end-to-end metrics.
struct Timed {
  /// One per timed call (sweep, dag: CallTimes::ms) or SOLVE (serve).
  std::vector<double> latency_ms;
  double throughput = 0.0;      ///< verified answers per second
  std::vector<double> setup_s;  ///< one per set-up
  std::vector<double> setup_raw_s;  ///< sweep, dag: the same, unscaled
  double wall_rate = 0.0;       ///< sweep, dag: answers per wall second
  double slowdown = 0.0;        ///< sweep, dag: HostSpeed::mean_slowdown
};

/// Times of the calls of sweep and dag over the passes of a run. Every
/// pass solves the same inputs, in the same order, on a fresh engine, so a
/// call does the same work in every pass. Each call's CPU time is scaled by
/// the host's speed measured right after it (host_speed.hpp), and a call's
/// time is the median of its passes. Traced runs record per-call spans in
/// even passes only, so the even and the odd passes give the spans' own
/// overhead on the same calls.
class CallTimes {
 public:
  explicit CallTimes(std::size_t calls);

  /// Records call `call` of pass `pass`: its scaled CPU seconds, and its
  /// wall seconds and answers for the printed wall-clock rate.
  void add(std::size_t call, std::size_t pass, double scaled_s, double wall_s,
           std::size_t answers);

  /// Each call's median over every pass, in ms.
  [[nodiscard]] std::vector<double> ms() const;
  /// Sum of ms() over the calls, in s.
  [[nodiscard]] double total_s() const;
  /// Sum of the calls' medians over the passes with spans against those
  /// without, minus one, in percent (0 before a pass of each kind).
  [[nodiscard]] double span_overhead_pct() const;
  /// Answers per wall-clock second over every pass, unscaled.
  [[nodiscard]] double wall_rate() const;

 private:
  /// [even passes (spans on), odd passes][call] -> scaled seconds.
  std::vector<std::vector<double>> times_[2];
  double wall_s_ = 0.0;
  double wall_answers_ = 0.0;
};

/// Whether pass `pass` records per-call spans (traced runs only).
[[nodiscard]] inline bool spans_on(std::size_t pass) { return pass % 2 == 0; }

/// throughput_inst_s, latency_p50_ms, latency_tail_ms, setup_s and
/// peak_rss_mb, plus a printed line with the wall-clock rate.
void emit_end_to_end(const Timed& timed, Report& report);

/// Per-layer epilogue shared by the workloads: the Cholesky probe, the
/// trace-overhead figure, the coverage line, and every catalog metric.
void emit_per_layer(const Args& args, Layers& layers, double overhead_pct,
                    Report& report);

/// Folds the checker's verdict into the report.
void emit_verdict(const class Checker& checker, std::uint64_t attempted,
                  Report& report);

}  // namespace perfbench
