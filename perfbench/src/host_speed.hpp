// How fast the host runs this process at the moment, measured with fixed
// reference kernels that belong to the benchmark, not to the library.
//
// On a VM that shares its cores with other tenants, the same work takes
// from 1x to 2x the CPU time from one second to the next, and a slow spell
// can outlast a whole run. A kernel of the same character as a workload's
// calls slows down with them: the ratio of a dag-like call to a dense
// kernel, and of a sweep-like call to a hashing kernel, stayed within a
// few percent while the calls themselves moved by 12-28% (see "host_speed"
// in perfbench/workloads.json). So the benchmark runs the kernel after
// every timed call and scales the call's CPU time by the kernel's nominal
// time over its measured time: the call's cost on a core running at the
// nominal speed. A change in the library moves the call and not the
// kernel, so it shows in full.
#pragma once

#include <cstddef>

namespace perfbench {

enum class Reference {
  /// Dense Cholesky factorizations, like the barrier's Newton steps (dag).
  kDense,
  /// Text keys hashed into a table and pow, like the closed-form, key and
  /// memo path (sweep).
  kHash,
};

class HostSpeed {
 public:
  explicit HostSpeed(Reference reference) : reference_(reference) {}

  /// Runs the reference kernel once (about a millisecond) and keeps its
  /// CPU time.
  void measure();

  /// `cpu_s` of work done between the last two measure() calls, scaled by
  /// the nominal kernel time over the mean of those two.
  [[nodiscard]] double scale(double cpu_s) const;

  /// Mean measured / nominal kernel time over every measure().
  [[nodiscard]] double mean_slowdown() const;

 private:
  Reference reference_;
  double previous_s_ = 0.0;
  double last_s_ = 0.0;
  double ratio_sum_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace perfbench
