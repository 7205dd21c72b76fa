// Unit tests for opt/: simplex (vs hand-solved and enumerated LPs),
// barrier interior point (vs closed-form convex optima), root finding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "opt/barrier.hpp"
#include "opt/simplex.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ro = reclaim::opt;
namespace la = reclaim::la;

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => (2, 6), value 36.
  ro::LinearProgram lp;
  const auto x = lp.add_variable(-3.0);  // minimize the negation
  const auto y = lp.add_variable(-5.0);
  lp.add_constraint({{{x, 1.0}}, ro::Relation::kLessEqual, 4.0});
  lp.add_constraint({{{y, 2.0}}, ro::Relation::kLessEqual, 12.0});
  lp.add_constraint({{{x, 3.0}, {y, 2.0}}, ro::Relation::kLessEqual, 18.0});
  const auto sol = ro::solve_lp(lp);
  ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-8);
  EXPECT_NEAR(sol.x[y], 6.0, 1e-8);
  EXPECT_NEAR(sol.objective, -36.0, 1e-8);
}

TEST(Simplex, EqualityAndGreaterConstraints) {
  // min x + 2y s.t. x + y = 4, x - y >= 0, y >= 1  => x = 3, y = 1? No:
  // y >= 1 via kGreaterEqual; optimum x = 3, y = 1, value 5.
  ro::LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ro::Relation::kEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {y, -1.0}}, ro::Relation::kGreaterEqual, 0.0});
  lp.add_constraint({{{y, 1.0}}, ro::Relation::kGreaterEqual, 1.0});
  const auto sol = ro::solve_lp(lp);
  ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[x], 3.0, 1e-8);
  EXPECT_NEAR(sol.x[y], 1.0, 1e-8);
  EXPECT_NEAR(sol.objective, 5.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  ro::LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{{x, 1.0}}, ro::Relation::kLessEqual, 1.0});
  lp.add_constraint({{{x, 1.0}}, ro::Relation::kGreaterEqual, 2.0});
  EXPECT_EQ(ro::solve_lp(lp).status, ro::LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  ro::LinearProgram lp;
  const auto x = lp.add_variable(-1.0);  // minimize -x, x unbounded above
  lp.add_constraint({{{x, -1.0}}, ro::Relation::kLessEqual, 0.0});
  EXPECT_EQ(ro::solve_lp(lp).status, ro::LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x >= 2 written as -x <= -2.
  ro::LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{{x, -1.0}}, ro::Relation::kLessEqual, -2.0});
  const auto sol = ro::solve_lp(lp);
  ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-8);
}

TEST(Simplex, DegenerateLpTerminates) {
  // Classic degeneracy: multiple tight constraints at the optimum.
  ro::LinearProgram lp;
  const auto x = lp.add_variable(-1.0);
  const auto y = lp.add_variable(-1.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ro::Relation::kLessEqual, 1.0});
  lp.add_constraint({{{x, 1.0}}, ro::Relation::kLessEqual, 1.0});
  lp.add_constraint({{{y, 1.0}}, ro::Relation::kLessEqual, 1.0});
  lp.add_constraint({{{x, 2.0}, {y, 1.0}}, ro::Relation::kLessEqual, 2.0});
  const auto sol = ro::solve_lp(lp);
  ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -1.0, 1e-8);
}

TEST(Simplex, RandomLpsAgreeWithGridOracle) {
  // 2-variable random LPs: compare against a dense grid scan of the
  // feasible box (coarse oracle, tolerant comparison).
  reclaim::util::Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    ro::LinearProgram lp;
    const double cx = rng.uniform(0.1, 2.0);
    const double cy = rng.uniform(0.1, 2.0);
    const auto x = lp.add_variable(cx);
    const auto y = lp.add_variable(cy);
    // Box 0 <= x,y <= 3 plus a coupling constraint x + y >= b.
    const double b = rng.uniform(0.5, 3.5);
    lp.add_constraint({{{x, 1.0}}, ro::Relation::kLessEqual, 3.0});
    lp.add_constraint({{{y, 1.0}}, ro::Relation::kLessEqual, 3.0});
    lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ro::Relation::kGreaterEqual, b});
    const auto sol = ro::solve_lp(lp);
    ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
    // Oracle: fill the cheaper coordinate first (capped at 3), then the
    // other one.
    const double cheap = std::min(cx, cy);
    const double dear = std::max(cx, cy);
    const double expected = cheap * std::min(b, 3.0) + dear * std::max(0.0, b - 3.0);
    EXPECT_NEAR(sol.objective, expected, 1e-6) << "trial " << trial;
  }
}

TEST(Simplex, RedundantEqualityRows) {
  // Duplicated equality row leaves a basic artificial on a zero row.
  ro::LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ro::Relation::kEqual, 2.0});
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ro::Relation::kEqual, 2.0});
  const auto sol = ro::solve_lp(lp);
  ASSERT_EQ(sol.status, ro::LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
}

namespace {

/// f(x) = sum (x_i - c_i)^2, a strictly convex quadratic.
class Quadratic final : public ro::ConvexObjective {
 public:
  explicit Quadratic(la::Vector centers) : centers_(std::move(centers)) {}

  double value(const la::Vector& x) const override {
    double v = 0.0;
    for (std::size_t i = 0; i < centers_.size(); ++i)
      v += (x[i] - centers_[i]) * (x[i] - centers_[i]);
    return v;
  }
  void add_gradient(const la::Vector& x, la::Vector& grad) const override {
    for (std::size_t i = 0; i < centers_.size(); ++i)
      grad[i] += 2.0 * (x[i] - centers_[i]);
  }
  void add_hessian_diagonal(const la::Vector&,
                            la::Vector& diag) const override {
    for (std::size_t i = 0; i < centers_.size(); ++i) diag[i] += 2.0;
  }

 private:
  la::Vector centers_;
};

}  // namespace

TEST(Barrier, UnconstrainedInteriorOptimum) {
  // Center (1, 2) inside the box [0,5]^2: barrier should find it.
  const Quadratic f({1.0, 2.0});
  std::vector<ro::SparseInequality> ineqs;
  for (std::size_t i = 0; i < 2; ++i) {
    ineqs.push_back({{{i, -1.0}}, 0.0});   // x_i >= 0
    ineqs.push_back({{{i, 1.0}}, 5.0});    // x_i <= 5
  }
  const auto result =
      ro::minimize_with_barrier(f, ineqs, la::Vector{2.5, 2.5});
  EXPECT_NEAR(result.x[0], 1.0, 1e-5);
  EXPECT_NEAR(result.x[1], 2.0, 1e-5);
  EXPECT_NEAR(result.objective, 0.0, 1e-6);
}

TEST(Barrier, ActiveConstraintOptimum) {
  // Center (4, 4) but x + y <= 4: optimum at (2, 2), value 8.
  const Quadratic f({4.0, 4.0});
  std::vector<ro::SparseInequality> ineqs;
  ineqs.push_back({{{0ul, 1.0}, {1ul, 1.0}}, 4.0});
  ineqs.push_back({{{0ul, -1.0}}, 0.0});
  ineqs.push_back({{{1ul, -1.0}}, 0.0});
  const auto result =
      ro::minimize_with_barrier(f, ineqs, la::Vector{1.0, 1.0});
  EXPECT_NEAR(result.x[0], 2.0, 1e-4);
  EXPECT_NEAR(result.x[1], 2.0, 1e-4);
  EXPECT_NEAR(result.objective, 8.0, 1e-4);
}

TEST(Barrier, RepeatedVariableInOneConstraint) {
  // 0.5 x + 0.5 x <= 2 is x <= 2: the Newton systems match the
  // single-term constraint's up to the rounding of the residual, so the
  // step counts agree within a step or two. Dropping one of the repeated
  // variable's cross terms leaves Newton linear (~40 steps more).
  const Quadratic f({4.0});
  std::vector<ro::SparseInequality> split;
  split.push_back({{{0ul, 0.5}, {0ul, 0.5}}, 2.0});
  split.push_back({{{0ul, -1.0}}, 0.0});
  std::vector<ro::SparseInequality> merged;
  merged.push_back({{{0ul, 1.0}}, 2.0});
  merged.push_back({{{0ul, -1.0}}, 0.0});
  const auto a = ro::minimize_with_barrier(f, split, la::Vector{1.0});
  const auto b = ro::minimize_with_barrier(f, merged, la::Vector{1.0});
  EXPECT_LE(a.newton_steps, b.newton_steps + 2);
  EXPECT_NEAR(a.x[0], 2.0, 1e-6);
  EXPECT_NEAR(a.x[0], b.x[0], 1e-12);
}

TEST(Barrier, RejectsInfeasibleStart) {
  const Quadratic f({0.0});
  std::vector<ro::SparseInequality> ineqs;
  ineqs.push_back({{{0ul, 1.0}}, 1.0});  // x <= 1
  EXPECT_THROW(
      (void)ro::minimize_with_barrier(f, ineqs, la::Vector{2.0}),
      reclaim::InvalidArgument);
}

TEST(Barrier, ReportsGapAndSteps) {
  const Quadratic f({1.0});
  std::vector<ro::SparseInequality> ineqs;
  ineqs.push_back({{{0ul, -1.0}}, 0.0});
  ineqs.push_back({{{0ul, 1.0}}, 3.0});
  const auto result = ro::minimize_with_barrier(f, ineqs, la::Vector{1.5});
  EXPECT_GT(result.newton_steps, 0u);
  EXPECT_LE(result.gap, 1e-9 * 1.0 + 1e-9);
}

namespace {

/// The continuous MinEnergy objective of a chain in its durations:
/// f(d) = sum w_i^3 / d_i^2 (alpha = 3), +inf off d > 0.
class ChainEnergy final : public ro::ConvexObjective {
 public:
  explicit ChainEnergy(la::Vector weights) : weights_(std::move(weights)) {}

  double value(const la::Vector& d) const override {
    double e = 0.0;
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      if (d[i] <= 0.0) return std::numeric_limits<double>::infinity();
      e += cube(weights_[i]) / (d[i] * d[i]);
    }
    return e;
  }
  void add_gradient(const la::Vector& d, la::Vector& grad) const override {
    for (std::size_t i = 0; i < weights_.size(); ++i)
      grad[i] += -2.0 * cube(weights_[i]) / cube(d[i]);
  }
  void add_hessian_diagonal(const la::Vector& d,
                            la::Vector& diag) const override {
    for (std::size_t i = 0; i < weights_.size(); ++i)
      diag[i] += 6.0 * cube(weights_[i]) / (cube(d[i]) * d[i]);
  }

  /// Closed-form optimum under sum d_i <= deadline: d_i proportional to
  /// w_i, f* = W^3 / deadline^2.
  double optimum(double deadline) const {
    double total = 0.0;
    for (const double w : weights_) total += w;
    return cube(total) / (deadline * deadline);
  }

 private:
  static double cube(double v) { return v * v * v; }
  la::Vector weights_;
};

/// sum d_i <= deadline and d_i >= 0.
std::vector<ro::SparseInequality> chain_constraints(std::size_t n,
                                                    double deadline) {
  std::vector<ro::SparseInequality> ineqs(1);
  ineqs[0].rhs = deadline;
  for (std::size_t i = 0; i < n; ++i) {
    ineqs[0].terms.emplace_back(i, 1.0);
    ineqs.push_back({{{i, -1.0}}, 0.0});
  }
  return ineqs;
}

}  // namespace

TEST(Barrier, BadlyScaledStartReachesTheOptimum) {
  // Every duration starts at 2e-5 to 6e-5 of its optimum, where the
  // objective's gradient is 1e13 to 1e14 times its value at the optimum.
  // An early corrector direction goes uphill for the merit function there;
  // without the fallback to the plain centering direction the solve stalls
  // at ~1.5x the optimum.
  const ChainEnergy f({1.0, 2.0, 3.0});
  const double deadline = 0.1;
  const auto result = ro::minimize_with_barrier(
      f, chain_constraints(3, deadline), la::Vector{1e-6, 1e-6, 1e-6});
  const double f_star = f.optimum(deadline);  // d = (1, 2, 3) / 60
  EXPECT_NEAR(result.objective, f_star, 1e-9 * f_star);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(result.x[i], static_cast<double>(i + 1) / 60.0, 1e-9);
  EXPECT_LE(result.newton_steps, 60u);
}

TEST(Barrier, GapCertifiesTheObjective) {
  // The reported gap s.lambda bounds the distance to the true optimum
  // (which the iterate, being feasible, cannot undercut), and it is within
  // the requested relative tolerance.
  const la::Vector weights{0.5, 1.0, 1.5, 2.0, 4.0};
  const ChainEnergy f(weights);
  for (const double deadline : {2.0, 9.0, 40.0}) {
    for (const double rel_gap : {1e-6, 1e-9}) {
      ro::BarrierOptions options;
      options.rel_gap = rel_gap;
      const la::Vector x0(weights.size(), 0.5 * deadline / 5.0);
      const auto result = ro::minimize_with_barrier(
          f, chain_constraints(weights.size(), deadline), x0, options);
      const double f_star = f.optimum(deadline);
      const double excess = f.value(result.x) - f_star;
      EXPECT_GE(excess, 0.0) << deadline << " " << rel_gap;
      EXPECT_LE(excess, result.gap) << deadline << " " << rel_gap;
      EXPECT_LE(result.gap,
                rel_gap * std::max(1.0, std::abs(result.objective)))
          << deadline << " " << rel_gap;
    }
  }
}

