// Unit tests for opt/: simplex (vs hand-solved and enumerated LPs),
// barrier interior point (vs closed-form convex optima), root finding.
#include <gtest/gtest.h>

#include <cmath>

#include "opt/barrier.hpp"
#include "opt/roots.hpp"
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

TEST(Roots, FindsSimpleRoot) {
  const auto f = [](double x) { return x * x - 2.0; };
  const double root = ro::find_root(f, 0.0, 2.0);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-10);
}

TEST(Roots, EndpointRoots) {
  const auto f = [](double x) { return x; };
  EXPECT_DOUBLE_EQ(ro::find_root(f, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ro::find_root(f, -1.0, 0.0), 0.0);
}

TEST(Roots, RequiresSignChange) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW((void)ro::find_root(f, -1.0, 1.0), reclaim::InvalidArgument);
}

TEST(Roots, MonotoneDecreasing) {
  const auto f = [](double x) { return 1.0 - std::exp(x); };
  EXPECT_NEAR(ro::find_root(f, -2.0, 2.0), 0.0, 1e-10);
}
