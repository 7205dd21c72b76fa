// The answer checker every workload runs on every answer it receives.
//
// An answer is right when it is feasible, meets its deadline, respects
// each task's speed cap (and the mode set of a mode-based model), and its
// energy equals core::recompute_energy within kFeasibilityRelTol. Sampled
// answers must also be bit-identical to the reference route (core::solve,
// or solve_race_to_idle / solve_joint_sleep for mapped sleep instances).
// Wrong answers are counted, never thrown past.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "core/solve.hpp"
#include "model/energy_model.hpp"
#include "sched/mapping.hpp"

namespace perfbench {

class Checker {
 public:
  /// Full check of one answer; false (and one failure counted) if wrong.
  bool check(const reclaim::core::Instance& instance,
             const reclaim::model::EnergyModel& model,
             const reclaim::core::Solution& solution, const char* where);

  /// Bit-identity against the reference answer; false (and one failure
  /// counted) if they differ.
  bool same(const reclaim::core::Solution& got,
            const reclaim::core::Solution& want, const char* where);

  /// Counts a failure that is not a wrong answer (refused, errored).
  void fail(const std::string& why);

  [[nodiscard]] std::uint64_t checked() const noexcept {
    return checked_.load();
  }
  [[nodiscard]] std::uint64_t compared() const noexcept {
    return compared_.load();
  }
  [[nodiscard]] std::uint64_t failures() const noexcept {
    return failures_.load();
  }
  /// The first few failure descriptions, for the printed report.
  [[nodiscard]] std::vector<std::string> first_errors() const;

 private:
  std::atomic<std::uint64_t> checked_{0};
  std::atomic<std::uint64_t> compared_{0};
  std::atomic<std::uint64_t> failures_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> errors_;  // guarded by mutex_
};

/// The reference answer the engine promises to match bit for bit: the
/// race-to-idle or joint route for continuous sleep-enabled mapped
/// instances, core::solve otherwise.
[[nodiscard]] reclaim::core::Solution reference_solve(
    const reclaim::core::Instance& instance,
    const reclaim::sched::Mapping* mapping,
    const reclaim::model::EnergyModel& model,
    const reclaim::core::SolveOptions& options);

/// Corrupts the energy of `solution` when the run plants a wrong answer
/// and this is the first call; the checker must then catch it.
void maybe_plant(bool plant, reclaim::core::Solution& solution);

}  // namespace perfbench
