// Structure-of-arrays kernels for the closed-form continuous families.
//
// Sweep workloads (Pareto curves, parameter grids, a daemon's steady
// state) hand the engine thousands of instances that share one topology
// and power model and differ only in task weights W and deadline D. The
// scalar path pays per-instance dispatch for each of them: topology
// classification, dispatch-cache and memo lookups, option plumbing, and
// a handful of heap allocations — all to reach a closed form that is a
// few multiplies. These kernels strip that overhead: the engine plans a
// *run* once (plan_kernel on the head instance, kernel_run_compatible to
// extend it) and then solves the whole run in one pass over the
// instances with no per-instance dispatch, no scratch allocation, and no
// cache traffic. A run may be a single instance: the engine solves every
// closed-form memo miss outside a long run as a run of one, which beats
// the scalar closed forms even with its planning paid per instance.
//
// Bit-identity contract: for every instance a kernel solves, the result
// (feasible flag, energy, speeds, method string, iteration count) is
// bit-identical to what the scalar path — engine dispatch ->
// solve_continuous -> closed form / tree / SP solver -> speeds_solution —
// would produce. The kernels guarantee this by replicating the scalar
// formulas with the same operations in the same order (the same max/min
// clamps, the same within_speed_cap checks, pow and summation order, and
// the same energy accumulation order: node-id order for the constant-
// speed forms, topological order for trees, decomposition-DFS order for
// series-parallel graphs); tests/test_batch_kernels.cpp fuzzes the
// equivalence. An instance a kernel cannot finish bit-identically (a
// closed form that violates the s_crit floor or the SP speed cap and
// must fall back to the barrier solver) is left untouched — default
// Solution with an empty method — and the engine re-solves it through
// the scalar path.
//
// Eligibility (plan_kernel) mirrors the scalar routing exactly:
//   - Continuous energy model, positive deadline, and not the sleep-DP
//     oracle (SleepMode::kDp on a sleep-enabled platform, which core::solve
//     sends to solve_sleep_dp).
//   - Homogeneous tasks (one shared power model and processor cap) for
//     every family; additionally, *heterogeneous* single-task and chain
//     instances whose task slots share one dynamic exponent plan as
//     hetero runs replicating the hetero closed forms (per-slot caps and
//     s_crit floors — big.LITTLE sweeps). Weights and deadline stay the
//     free axes; the per-slot platform is part of the run signature.
//   - Shape single / chain / fork / out-/in-tree / series-parallel by the
//     same structural predicates the dispatcher uses (and in its
//     classification order — joins stay scalar: they are in-trees
//     structurally but route to solve_join).
//   - LeakageMode::kExact only where the s_crit reduction is provably
//     exact a priori (always for single/chain under a homogeneous model;
//     forks/trees/SP only without static power) — everywhere else the
//     exact route runs a waterfill or barrier pass and stays scalar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/problem.hpp"
#include "core/solve.hpp"
#include "graph/classify.hpp"
#include "graph/sp_tree.hpp"
#include "model/energy_model.hpp"

namespace reclaim::core {

enum class KernelFamily { kSingle, kChain, kFork, kTree, kSp };

/// Number of kernel families (per-family stats counters index by family).
inline constexpr std::size_t kKernelFamilies = 5;

/// Flattened, recursion-free evaluation order for the tree / SP solvers —
/// everything about the *topology* that the scalar solvers recompute per
/// instance (topological order, the SP decomposition's DFS orders). Built
/// once per run by plan_kernel, or once per *topology* by the engine's
/// shape cache (next to that topology's graph::ShapeInfo), then shared by
/// every instance of the shape. Weight- and model-dependent quantities
/// (equivalent weights, windows, the exponent) stay out: they live in the
/// KernelPlan or in per-instance scratch.
struct CompositionPlan {
  // --- tree families (out- and in-trees) -------------------------------
  /// The evaluation graph is the original adjacency for out-trees and the
  /// reversed one for in-trees (node ids preserved) — exactly the graph
  /// solve_tree hands to its out-tree core.
  bool reversed = false;
  /// Topological order of the evaluation graph (Kahn, smallest-id-first —
  /// the same canonical order graph::topological_order returns).
  std::vector<graph::NodeId> order;
  /// CSR successor lists of the evaluation graph: children of v are
  /// child[child_offset[v] .. child_offset[v + 1]), in adjacency order.
  std::vector<std::uint32_t> child_offset;
  std::vector<graph::NodeId> child;
  /// Sources of the evaluation graph (window = deadline roots).
  std::vector<graph::NodeId> roots;

  // --- series-parallel -------------------------------------------------
  /// The decomposition tree (shared with graph::ShapeInfo::sp_tree when
  /// the engine cached it) plus recursion-free traversal orders
  /// replicating the solver's DFS: post_order visits children before
  /// parents (the equivalent-weight fold), pre_order parents before
  /// children with siblings in child order (the window assignment, which
  /// fixes the energy accumulation order at the leaves).
  std::shared_ptr<const graph::SpTree> sp_tree;
  std::vector<std::uint32_t> post_order;
  std::vector<std::uint32_t> pre_order;
  /// Parent tree-node of each tree node (the root maps to itself).
  std::vector<std::uint32_t> parent;
};

/// Flattens the topological order and adjacency of an (out- or in-) tree
/// graph into a CompositionPlan. For in-trees the plan is built on the
/// reversed graph, matching solve_tree's reversal (node ids preserved).
[[nodiscard]] std::shared_ptr<const CompositionPlan> build_tree_plan(
    const graph::Digraph& g, bool in_tree);

/// Flattens an SP decomposition's recursive traversals into a
/// CompositionPlan (takes shared ownership of the tree).
[[nodiscard]] std::shared_ptr<const CompositionPlan> build_sp_plan(
    std::shared_ptr<const graph::SpTree> tree);

/// Shared per-run constants, derived once from the run's head instance:
/// everything the closed form needs besides the per-instance W and D.
struct KernelPlan {
  KernelFamily family = KernelFamily::kSingle;
  /// Effective speed cap: the model's global s_max folded with the
  /// (shared) processor cap, exactly as solve_continuous folds it.
  double s_max = 0.0;
  /// Effective speed floor max(s_min, min(s_crit, s_max)) — the s_crit
  /// reduction's clamp, shared by every task of a homogeneous instance.
  double floor = 0.0;
  /// Fork only: the root node.
  graph::NodeId root = 0;
  /// Fork/tree/SP: the shared dynamic exponent and its precomputed
  /// reciprocal for the l_alpha folds (pow(sum, inv_alpha) — the same
  /// 1/alpha double the scalar solvers compute).
  double alpha = 0.0;
  double inv_alpha = 0.0;
  /// Tree/SP: the flattened evaluation order (see CompositionPlan).
  std::shared_ptr<const CompositionPlan> comp;
  /// Heterogeneous runs (single/chain slots sharing one exponent):
  /// per-slot effective caps min(model cap, processor cap) and the floor
  /// a *weighted* task in the slot would get (zero-weight tasks stay
  /// floorless per instance — exactly dispatch's effective_bounds).
  bool hetero = false;
  double s_min = 0.0;  ///< requested floor (per-instance cap check)
  std::vector<double> caps;
  std::vector<double> floors;
};

/// Pre-computed structural facts about the head instance's topology, as
/// cached by the engine's shape cache: its graph::analyze (shape and SP
/// decomposition) and the flattened composition plan. Both optional —
/// plan_kernel recomputes whatever is missing (and the hints must belong
/// to this very topology when present).
struct KernelPlanHints {
  std::optional<graph::ShapeInfo> shape;
  std::shared_ptr<const CompositionPlan> comp;
};

/// Returns the kernel plan when `instance` under `model` and `options`
/// would take a batchable closed-form route through solve_continuous;
/// std::nullopt otherwise. Pure structural/model predicates — never
/// touches engine caches (the engine passes its cached analysis in via
/// `hints` instead).
[[nodiscard]] std::optional<KernelPlan> plan_kernel(
    const Instance& instance, const model::EnergyModel& model,
    const SolveOptions& options, const KernelPlanHints& hints = {});

/// True when `other` can share `head`'s plan: positive deadline, the
/// same topology (node-for-node successor lists), and the same per-slot
/// power model and processor cap (for homogeneous heads this degenerates
/// to the shared model/cap check). Weights and deadlines are free to
/// differ — that is the batchable axis.
[[nodiscard]] bool kernel_run_compatible(const Instance& head,
                                         const Instance& other);

/// Solves `count` instances of one run in a single pass under the shared
/// plan, writing out[i] for instances[i]. Results are bit-identical to
/// the scalar path; an instance the kernel must hand back (floor or SP
/// cap violation, hetero chain off the closed form) leaves out[i]
/// default-constructed with an empty method — the caller re-solves those
/// scalar.
void solve_kernel_run(const KernelPlan& plan,
                      const Instance* const* instances, std::size_t count,
                      Solution* out);

}  // namespace reclaim::core
