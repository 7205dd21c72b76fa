// The closed forms of the Continuous model, as structure-of-arrays
// kernels: the one implementation of every polynomial case.
//
// - Single task: s = w / D. Chain: one common speed sum(w) / D (the
//   equal-speed exchange argument). Both clamp the speed up to the floor
//   (exact for serial graphs — DESIGN.md, "The critical speed and the
//   s_crit reduction").
// - Fork T0 -> {T1..Tn} (Theorem 1, generalized to exponent alpha):
//     l = (sum w_i^alpha)^(1/alpha),  s_0 = (l + w_0) / D,
//     s_i = s_0 * w_i / l,
//   and when s_0 would exceed s_max: s_0 = s_max, the leaves share
//   D' = D - w_0/s_max with s_i = w_i / D' (infeasible when any exceeds
//   s_max — the paper's saturated branch). Equation (1) is symmetric
//   under time reversal, so a join is the same fork rooted at its sink.
// - Out-tree (Theorem 2 with a finite cap): bottom-up equivalent weights
//   weq(v) = w_v + l_alpha(children), then top-down
//     s_v = min(weq(v) / window_v, s_max),  window_child = window_v - w_v/s_v,
//   which is optimal by convexity (pinning a subtree root at its bound is
//   exact). In-trees compose on the reversed graph.
// - Series-parallel (Theorem 2, s_max = +inf): series compositions add
//   equivalent weights, parallel ones take their l_alpha norm; unfolding
//   the decomposition top-down splits the deadline window (series
//   children by weight share, parallel children inherit it) — the paper's
//   "nested cube roots" for alpha = 3. The answer stands only when its
//   top speed respects the cap.
// - Heterogeneous chains (per-slot power models and caps): the
//   equal-speed form holds when every weighted task shares one dynamic
//   exponent and W/D clears every per-task floor and cap (DESIGN.md,
//   "When the closed forms stay exact").
//
// solve_continuous asks the planner first and answers every closed-form
// shape with a run of one (solve_closed_form); the engine also solves
// runs of instances that share one topology and power model and differ
// only in weights W and deadline D — sweeps, Pareto curves, a daemon's
// steady state — in one pass: plan_kernel on the run's head,
// kernel_eligible and kernel_run_compatible to extend it, solve_kernel_run
// over the run, with no per-instance dispatch, scratch allocation or cache
// traffic. Either way an instance gets the same operations in the same
// order, so a long run is bit-identical to core::solve by construction.
//
// Hand-back: an instance whose closed form violates the s_crit floor (or
// the SP speed cap, or a hetero chain off the equal-speed form) is left
// untouched — default Solution with an empty method — and the caller
// solves it with the floored numeric barrier solver (core::solve).
//
// Eligibility (plan_kernel):
//   - kernel_eligible (a Continuous energy model, and not the sleep-DP
//     oracle: SleepMode::kDp on a sleep-enabled platform, which
//     core::solve sends to solve_sleep_dp), and a positive deadline.
//   - Homogeneous tasks (one shared power model and processor cap) for
//     every family; heterogeneous chains plan as hetero runs with
//     per-slot caps and s_crit floors (big.LITTLE sweeps). Weights and
//     deadline stay the free axes; the per-slot platform is part of the
//     run signature.
//   - Shape single / chain / fork / join / out-/in-tree /
//     series-parallel, as graph::analyze decides it. A join plans as the
//     fork family rooted at its sink.
//   - LeakageMode::kExact only where reduction_exact_a_priori holds —
//     everywhere else the exact route runs a waterfill or barrier pass on
//     top of the reduction.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/problem.hpp"
#include "core/solve.hpp"
#include "graph/classify.hpp"
#include "model/energy_model.hpp"

namespace reclaim::core {

enum class KernelFamily { kSingle, kChain, kFork, kTree, kSp };

/// Number of kernel families (per-family stats counters index by family).
inline constexpr std::size_t kKernelFamilies = 5;

/// Shared per-run constants, derived once from the run's head instance:
/// everything the closed form needs besides the per-instance W and D.
struct KernelPlan {
  KernelFamily family = KernelFamily::kSingle;
  /// Effective speed cap: the model's global s_max folded with the
  /// (shared) processor cap.
  double s_max = 0.0;
  /// Effective speed floor max(s_min, min(s_crit, s_max)) — the s_crit
  /// reduction's clamp, shared by every task of a homogeneous instance.
  double floor = 0.0;
  /// Fork only: the root node — the source of a fork, the sink of a
  /// join.
  graph::NodeId root = 0;
  /// Fork only: the run is a join (its answers say "closed-form-join").
  bool join = false;
  /// Fork/tree/SP: the shared dynamic exponent and its reciprocal for
  /// the l_alpha folds.
  double alpha = 0.0;
  double inv_alpha = 0.0;
  /// Tree/SP: the flattened evaluation order.
  std::shared_ptr<const graph::CompositionPlan> comp;
  /// Heterogeneous chains: per-slot effective caps min(model cap,
  /// processor cap) and the floor a *weighted* task in the slot would get
  /// (zero-weight tasks stay floorless per instance).
  bool hetero = false;
  double s_min = 0.0;  ///< requested floor (per-instance cap check)
  std::vector<double> caps;
  std::vector<double> floors;
};

/// True when no model or sleep route rules `instance` out of the kernels
/// before its shape is looked at: a Continuous model, and not the sleep-DP
/// oracle (SleepMode::kDp on a sleep-enabled platform). plan_kernel's
/// first test; the engine asks it of every instance of a run, since run
/// compatibility compares only the processors tasks use.
[[nodiscard]] bool kernel_eligible(const Instance& instance,
                                   const model::EnergyModel& model,
                                   const SolveOptions& options);

/// True when the s_crit reduction provably attains the true leaky optimum
/// on `instance` (DESIGN.md, "When the reduction is exact"), so
/// LeakageMode::kExact answers with the reduction's solution:
///   - no weighted task has static power (the floor is 0),
///   - a single task (its own floor and cap apply directly),
///   - a chain whose weighted tasks share one alpha, P_stat and effective
///     cap: once the deadline binds, sum d_v = D makes the leakage term
///     allocation-independent; otherwise every task sits at the shared
///     s_crit (or cap), its per-task global minimum.
/// Mixed-P_stat chains and slack-bearing parallel shapes are exactly the
/// documented not-exact class and return false. `shape` is the
/// instance's graph::analyze shape. The answer depends on which tasks
/// carry weight, so it is asked of every instance of a kExact run.
[[nodiscard]] bool reduction_exact_a_priori(const Instance& instance,
                                            const model::ContinuousModel& model,
                                            graph::GraphShape shape);

/// Returns the kernel plan when `instance` under `model` and `options`
/// takes a closed-form route through core::solve; std::nullopt otherwise.
/// `shape`, when given, must be graph::analyze of the instance's graph
/// (the engine passes its cached copy, composition plan attached) — or,
/// to run a family's kernel on a graph of a more special shape, a
/// hand-built ShapeInfo naming that family. Absent, the graph is analyzed
/// here.
[[nodiscard]] std::optional<KernelPlan> plan_kernel(
    const Instance& instance, const model::EnergyModel& model,
    const SolveOptions& options, const graph::ShapeInfo* shape = nullptr);

/// solve_continuous's closed-form step, with requested floor `s_min`
/// under `leakage`: plans as plan_kernel does and runs the kernel on the
/// one instance, writing its answer to `out`. False, with `out`
/// unspecified, when the planner rejects the instance (empty or general
/// shape, a hetero platform off a chain, s_min above the cap, or kExact
/// where the reduction is not exact a priori) or the kernel hands it
/// back.
[[nodiscard]] bool solve_closed_form(const Instance& instance,
                                     const model::ContinuousModel& model,
                                     double s_min, LeakageMode leakage,
                                     const graph::ShapeInfo& shape,
                                     Solution& out);

/// The kernel family whose closed form reports `method`, if any — how
/// the engine attributes a core::solve answer to the kernels.
[[nodiscard]] std::optional<KernelFamily> kernel_family_of(
    std::string_view method);

/// True when `other` can share `head`'s plan: positive deadline, the
/// same topology (graph::Digraph::same_topology — O(1) when the graphs
/// share a structure, as copies of one graph do), and the same per-slot
/// power model and processor cap (for homogeneous heads this degenerates
/// to the shared model/cap check). Weights and deadlines are free to
/// differ — that is the batchable axis.
[[nodiscard]] bool kernel_run_compatible(const Instance& head,
                                         const Instance& other);

/// Solves `count` instances of one run in a single pass under the shared
/// plan, writing out[i] for instances[i]. An instance the kernel must
/// hand back (floor or SP cap violation, hetero chain off the closed
/// form) leaves out[i] default-constructed with an empty method — the
/// caller re-solves those through core::solve.
void solve_kernel_run(const KernelPlan& plan,
                      const Instance* const* instances, std::size_t count,
                      Solution* out);

}  // namespace reclaim::core
