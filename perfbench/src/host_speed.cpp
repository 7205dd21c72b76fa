#include "host_speed.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/// Keeps the kernels' results alive.
volatile double g_sink = 0.0;

/// Nominal CPU seconds of one kernel run. Both kernels are sized to take
/// roughly this long on the machine the benchmark was tuned on (Intel
/// Xeon, KVM); only the scale of the reported times depends on it.
constexpr double kNominalS = 1.0e-3;
constexpr std::uint32_t kHashInserts = 6000;

// Neither kernel allocates: the allocator's state follows the library's
// own allocations, and would leak them into the measurement.

void dense_kernel() {
  constexpr std::size_t d = 100;
  static const std::vector<double> spd = [] {
    std::vector<double> a(d * d);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        a[i * d + j] = 1.0 / static_cast<double>(1 + i + j) +
                       (i == j ? static_cast<double>(d) : 0.0);
      }
    }
    return a;
  }();
  static std::vector<double> l(d * d);
  for (int rep = 0; rep < 11; ++rep) {
    std::copy(spd.begin(), spd.end(), l.begin());
    for (std::size_t j = 0; j < d; ++j) {
      double diag = l[j * d + j];
      for (std::size_t k = 0; k < j; ++k) diag -= l[j * d + k] * l[j * d + k];
      diag = std::sqrt(diag);
      l[j * d + j] = diag;
      for (std::size_t i = j + 1; i < d; ++i) {
        double v = l[i * d + j];
        for (std::size_t k = 0; k < j; ++k) v -= l[i * d + k] * l[j * d + k];
        l[i * d + j] = v / diag;
      }
    }
    g_sink = g_sink + l.back();
  }
}

/// Text keys hashed into an open-addressing table, one pow per insert.
void hash_kernel() {
  constexpr std::size_t kSlots = 4096;
  static std::array<std::uint64_t, kSlots> keys;
  static std::array<double, kSlots> values;
  keys.fill(0);
  char text[32];
  for (std::uint32_t i = 0; i < kHashInserts; ++i) {
    const int n = std::snprintf(text, sizeof text, "task%u:%u",
                                i * 2654435761u % 100003u, i % 7);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int c = 0; c < n; ++c) {
      h = (h ^ static_cast<unsigned char>(text[c])) * 0x100000001b3ULL;
    }
    h |= 1;
    std::size_t slot = h & (kSlots - 1);
    while (keys[slot] != 0 && keys[slot] != h) {
      slot = (slot + 1) & (kSlots - 1);
    }
    keys[slot] = h;
    values[slot] += std::pow(1.0 + static_cast<double>(i % 17), 1.0 / 2.7);
    if (i % 2048 == 2047) keys.fill(0);  // the table never fills
  }
  g_sink = g_sink + values[1];
}

}  // namespace

void HostSpeed::measure() {
  const Tracer::Scope span("bench.host_speed");
  const double c0 = process_cpu_s();
  if (reference_ == Reference::kDense) {
    dense_kernel();
  } else {
    hash_kernel();
  }
  const double s = process_cpu_s() - c0;
  previous_s_ = count_ == 0 ? s : last_s_;
  last_s_ = s;
  ratio_sum_ += s / kNominalS;
  ++count_;
}

double HostSpeed::scale(double cpu_s) const {
  return cpu_s * kNominalS / (0.5 * (previous_s_ + last_s_));
}

double HostSpeed::mean_slowdown() const {
  return count_ == 0 ? 0.0 : ratio_sum_ / static_cast<double>(count_);
}

}  // namespace perfbench
