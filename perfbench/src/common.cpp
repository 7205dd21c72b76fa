#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sstream>
#include <thread>
#include <variant>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double supported_tail(const std::vector<double>& values, std::string* label) {
  for (const auto& [percent, name] :
       {std::pair{99, "p99"}, std::pair{90, "p90"}}) {
    // Integer arithmetic: 100 * (1 - 0.9) is just below 10 in doubles.
    if (values.size() * static_cast<std::size_t>(100 - percent) >= 1000) {
      if (label != nullptr) *label = name;
      return quantile(values, percent / 100.0);
    }
  }
  if (label != nullptr) *label = "p50";
  return quantile(values, 0.5);
}

std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Fingerprint::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::instance(const reclaim::core::Instance& instance) {
  const auto& g = instance.exec_graph;
  u64(g.num_nodes());
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    f64(g.weight(v));
    for (const std::size_t s : g.successors(v)) u64(s);
    u64(~0ULL);
  }
  f64(instance.deadline);
  for (const auto& spec : instance.platform.specs()) {
    f64(spec.power.alpha());
    f64(spec.power.p_static());
    f64(spec.power.sleep().p_idle);
    f64(spec.power.sleep().p_sleep);
    f64(spec.power.sleep().e_wake);
    f64(spec.s_max);
  }
  for (const std::size_t p : instance.assignment) u64(p);
}

void Fingerprint::mapping(const reclaim::sched::Mapping& mapping) {
  for (const auto& list : mapping.lists()) {
    for (const std::size_t t : list) u64(t);
    u64(~0ULL);
  }
}

void Fingerprint::model(const reclaim::model::EnergyModel& model) {
  u64(model.index());
  f64(reclaim::model::max_speed(model));
  if (!std::holds_alternative<reclaim::model::ContinuousModel>(model)) {
    for (const double s : reclaim::model::modes_of(model).speeds()) f64(s);
  }
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

const std::vector<std::string>& families() {
  static const std::vector<std::string> kFamilies = {
      "closed-form",         "tree",
      "series-parallel",     "numeric-barrier",
      "numeric-exact-leaky", "waterfill-exact-leaky",
      "race-to-idle",        "joint-sleep",
      "vdd-lp",              "discrete-bb",
      "cont-round"};
  return kFamilies;
}

std::string family_of(const std::string& method) {
  if (method.rfind("closed-form", 0) == 0) return "closed-form";
  for (const auto& family : families()) {
    if (method == family) return family;
  }
  return {};
}

std::string size_bucket(std::size_t tasks) {
  if (tasks >= 20 && tasks <= 35) return "n25";
  if (tasks >= 40 && tasks <= 60) return "n50";
  if (tasks >= 90 && tasks <= 110) return "n100";
  return {};
}

std::string fmt(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

}  // namespace perfbench
