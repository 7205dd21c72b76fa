// Shared pieces of the benchmark program: run arguments, the metric report,
// percentile helpers, the input fingerprint and the clock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "core/solve.hpp"
#include "model/energy_model.hpp"
#include "sched/mapping.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test: every stage runs, nothing is steady.
  bool tiny = false;
  /// Corrupts one answer before it is checked (self-test of the checker).
  bool plant_wrong = false;
  /// Open-loop SOLVE rate of the serve workload (requests/s); required
  /// for serve, which perfbench/run.py reads from workloads.json.
  double serve_rate = 0.0;
  /// Build directory inside the checkout (socket, trace file).
  std::string out_dir = ".bench_build";
  /// When the run started (the traced run's wall time counts from here).
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// nproc: pooled engine threads, serve connections, reference workers.
[[nodiscard]] std::size_t hardware_threads();

/// CPU seconds this process has run, summed over its threads. Time the
/// host steals from a VM's vCPUs is not in it.
[[nodiscard]] double process_cpu_s();

/// One printed metric: value plus the unit it is reported in.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the verdict, the counts behind
/// error_rate, the metrics and human-readable lines printed above the
/// final JSON line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> lines;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { lines.push_back(std::move(line)); }
};

/// Linear-interpolation quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The tail the sample supports: the highest of p99 / p90 with at least
/// ten samples beyond it, else the median. `label` receives "p99"/"p90"/
/// "p50".
[[nodiscard]] double supported_tail(const std::vector<double>& values,
                                    std::string* label);

[[nodiscard]] double median(std::vector<double> values);

/// Process peak resident set size in MiB.
[[nodiscard]] double peak_rss_mib();

/// 64-bit FNV-1a over the bytes of everything fed to it.
class Fingerprint {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void instance(const reclaim::core::Instance& instance);
  void mapping(const reclaim::sched::Mapping& mapping);
  void model(const reclaim::model::EnergyModel& model);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Solver family of a Solution::method ("closed-form-chain" ->
/// "closed-form"); empty for methods outside the reported families.
[[nodiscard]] std::string family_of(const std::string& method);

/// The reported solver families, in print order.
[[nodiscard]] const std::vector<std::string>& families();

/// Bucket label of a barrier instance by task count ("n25", "n50",
/// "n100"), empty outside the buckets.
[[nodiscard]] std::string size_bucket(std::size_t tasks);

[[nodiscard]] std::string fmt(double value, int precision = 3);

}  // namespace perfbench
