// Unit tests for la/: dense matrix ops, Cholesky, sparse Cholesky.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "la/cholesky.hpp"
#include "la/matrix.hpp"
#include "la/sparse_cholesky.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace la = reclaim::la;

namespace {

la::Matrix random_matrix(std::size_t n, reclaim::util::Rng& rng) {
  la::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform(-2.0, 2.0);
  return m;
}

la::Matrix random_spd(std::size_t n, reclaim::util::Rng& rng) {
  // A^T A + n I is comfortably SPD.
  const la::Matrix a = random_matrix(n, rng);
  la::Matrix spd = a.transposed().multiply(a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

la::Vector random_vector(std::size_t n, reclaim::util::Rng& rng) {
  la::Vector v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

}  // namespace

TEST(Matrix, IdentityMultiply) {
  const auto eye = la::Matrix::identity(4);
  const la::Vector x{1.0, -2.0, 3.0, 0.5};
  const auto y = eye.multiply(la::Vector(x));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Matrix, MultiplyKnownValues) {
  la::Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const auto y = a.multiply(la::Vector{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const auto z = a.multiply_transposed(la::Vector{1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(Matrix, DimensionMismatchThrows) {
  la::Matrix a(2, 3);
  EXPECT_THROW((void)a.multiply(la::Vector{1.0, 2.0}), reclaim::InvalidArgument);
  EXPECT_THROW((void)a.multiply_transposed(la::Vector{1.0, 2.0, 3.0}),
               reclaim::InvalidArgument);
}

TEST(Matrix, MatrixMatrixMultiplyAgainstTranspose) {
  reclaim::util::Rng rng(5);
  const auto a = random_matrix(6, rng);
  const auto at = a.transposed();
  const auto prod = a.multiply(at);
  // (A A^T) is symmetric.
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 6; ++c)
      EXPECT_NEAR(prod(r, c), prod(c, r), 1e-12);
}

TEST(VectorOps, DotAndNormInf) {
  const la::Vector a{1.0, 2.0, 2.0};
  const la::Vector b{2.0, 0.0, -3.0};
  EXPECT_DOUBLE_EQ(la::dot(a, b), -4.0);
  EXPECT_DOUBLE_EQ(la::norm_inf(b), 3.0);
  EXPECT_THROW((void)la::dot(a, la::Vector{1.0}), reclaim::InvalidArgument);
}

TEST(Cholesky, SolvesKnownSystem) {
  la::Matrix a(2, 2);
  a(0, 0) = 4.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 3.0;
  const la::Cholesky chol(a);
  const auto x = chol.solve({2.0, 3.0});
  // Solution of [[4,2],[2,3]] x = [2,3]: x = [0, 1].
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(Cholesky, RandomSpdResidualsSmall) {
  reclaim::util::Rng rng(31);
  for (std::size_t n : {3u, 8u, 25u, 60u}) {
    const auto a = random_spd(n, rng);
    const auto b = random_vector(n, rng);
    const la::Cholesky chol(a);
    const auto x = chol.solve(b);
    const auto ax = a.multiply(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
  }
}

TEST(Cholesky, RejectsIndefinite) {
  la::Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 1.0;  // eigenvalues 3 and -1
  EXPECT_THROW(la::Cholesky{a}, reclaim::NumericalError);
}

TEST(Cholesky, JitterLiftsNearSingular) {
  la::Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 1.0;  // singular
  EXPECT_NO_THROW(la::Cholesky(a, 1e-8));
}

TEST(Cholesky, LogDetMatchesKnown) {
  la::Matrix a(2, 2);
  a(0, 0) = 4.0; a(0, 1) = 0.0;
  a(1, 0) = 0.0; a(1, 1) = 9.0;
  const la::Cholesky chol(a);
  EXPECT_NEAR(chol.log_det(), std::log(36.0), 1e-12);
}

namespace {

using Entries = std::vector<la::SparseCholesky::Entry>;

/// A random SPD matrix on the pattern `entries`: strictly diagonally
/// dominant, then congruence-scaled D A D with D spread over six orders
/// of magnitude.
la::Matrix random_sparse_spd(std::size_t n, const Entries& entries,
                             reclaim::util::Rng& rng) {
  la::Matrix a(n, n);
  for (const auto& [i, j] : entries) {
    if (i == j) continue;
    const double v = rng.uniform(-1.0, 1.0);
    a(i, j) = v;
    a(j, i) = v;
  }
  la::Vector scale(n);
  for (auto& s : scale) s = std::pow(10.0, rng.uniform(-3.0, 3.0));
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) off += std::abs(a(i, j));
    a(i, i) = off + rng.uniform(0.5, 2.0);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) *= scale[i] * scale[j];
  return a;
}

/// Writes dense `a`'s entries on the pattern through slot(); duplicates
/// and both orientations land on one slot, fill stays zero.
void assemble(la::SparseCholesky& chol, const la::Matrix& a,
              const Entries& entries) {
  chol.clear();
  const auto values = chol.values();
  for (std::size_t i = 0; i < a.rows(); ++i) values[chol.slot(i, i)] = a(i, i);
  for (const auto& [i, j] : entries) values[chol.slot(i, j)] = a(i, j);
}

/// ||A x - b||_inf / (||A||_max ||x||_inf + ||b||_inf).
double relative_residual(const la::Matrix& a, const la::Vector& x,
                         const la::Vector& b) {
  const la::Vector ax = a.multiply(x);
  double r = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    r = std::max(r, std::abs(ax[i] - b[i]));
  double a_max = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      a_max = std::max(a_max, std::abs(a(i, j)));
  return r / (a_max * la::norm_inf(x) + la::norm_inf(b));
}

Entries tree_pattern(std::size_t n, reclaim::util::Rng& rng) {
  Entries e;
  for (std::size_t i = 1; i < n; ++i)
    e.emplace_back(static_cast<std::size_t>(
                       rng.uniform_int(0, static_cast<std::int64_t>(i) - 1)),
                   i);
  return e;
}

Entries band_pattern(std::size_t n, std::size_t half_width) {
  Entries e;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < std::min(n, i + half_width + 1); ++j)
      e.emplace_back(j, i);  // lower orientation
  return e;
}

/// Node 0 couples to every other node: index order fills the whole
/// matrix, minimum degree eliminates the hub last and fills nothing.
Entries arrow_pattern(std::size_t n) {
  Entries e;
  for (std::size_t i = 1; i < n; ++i) e.emplace_back(0, i);
  return e;
}

/// Two bands on disjoint index sets, interleaved, with duplicate entries
/// in both orientations and self entries.
Entries disconnected_pattern(std::size_t n) {
  Entries e;
  for (std::size_t i = 0; i + 2 < n; ++i) {
    e.emplace_back(i, i + 2);
    e.emplace_back(i + 2, i);
    e.emplace_back(i, i);
  }
  return e;
}

/// A band with row `empty` cut out of it: only its diagonal remains.
Entries empty_row_pattern(std::size_t n, std::size_t empty) {
  Entries e;
  for (const auto& entry : band_pattern(n, 2))
    if (entry.first != empty && entry.second != empty) e.push_back(entry);
  return e;
}

/// KKT pattern of the barrier's Newton system on an out-tree: variables
/// t_v (v) and d_v (n + v); each edge (p, c) couples {t_p, d_c, t_c} and
/// each task couples {d_v, t_v}.
Entries out_tree_kkt_pattern(std::size_t n, reclaim::util::Rng& rng) {
  Entries e;
  for (std::size_t c = 1; c < n; ++c) {
    const auto p = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(c) - 1));
    e.emplace_back(p, n + c);
    e.emplace_back(p, c);
    e.emplace_back(n + c, c);
  }
  for (std::size_t v = 0; v < n; ++v) e.emplace_back(n + v, v);
  return e;
}

}  // namespace

TEST(SparseCholesky, MatchesDenseOnRandomPatterns) {
  reclaim::util::Rng rng(77);
  const std::vector<std::pair<const char*, Entries>> patterns = {
      {"tree", tree_pattern(60, rng)},
      {"band", band_pattern(60, 4)},
      {"arrow", arrow_pattern(60)},
      {"disconnected", disconnected_pattern(60)},
      {"empty row", empty_row_pattern(60, 17)},
  };
  for (const auto& [name, entries] : patterns) {
    SCOPED_TRACE(name);
    const la::Matrix a = random_sparse_spd(60, entries, rng);
    la::SparseCholesky chol(60, entries);
    assemble(chol, a, entries);
    chol.factor();
    EXPECT_EQ(chol.lifted_pivots(), 0u);
    const la::Vector b = random_vector(60, rng);
    la::Vector x = b;
    chol.solve(x);
    EXPECT_LE(relative_residual(a, x, b), 1e-12);
    const la::Vector dense = la::Cholesky(a).solve(b);
    for (std::size_t i = 0; i < 60; ++i)
      EXPECT_NEAR(x[i], dense[i], 1e-9 * la::norm_inf(dense));
  }
}

TEST(SparseCholesky, RefactorsNewValuesOnTheSamePattern) {
  reclaim::util::Rng rng(78);
  const Entries entries = tree_pattern(40, rng);
  la::SparseCholesky chol(40, entries);
  for (int round = 0; round < 3; ++round) {
    const la::Matrix a = random_sparse_spd(40, entries, rng);
    assemble(chol, a, entries);
    chol.factor();
    const la::Vector b = random_vector(40, rng);
    la::Vector x = b;
    chol.solve(x);
    EXPECT_LE(relative_residual(a, x, b), 1e-12);
  }
}

TEST(SparseCholesky, ArrowAndTreeHaveNoFill) {
  reclaim::util::Rng rng(79);
  const la::SparseCholesky arrow(200, arrow_pattern(200));
  EXPECT_EQ(arrow.factor_nonzeros(), arrow.matrix_nonzeros());
  const la::SparseCholesky tree(200, tree_pattern(200, rng));
  EXPECT_EQ(tree.factor_nonzeros(), tree.matrix_nonzeros());
  EXPECT_EQ(tree.matrix_nonzeros(), 200u + 199u);
}

TEST(SparseCholesky, OrderingKeepsOutTreeKktFillSmall) {
  // Index order would fill from each parent to its distant children; the
  // minimum-degree factor stays within twice the matrix's nonzeros.
  reclaim::util::Rng rng(80);
  const std::size_t n = 1000;
  const la::SparseCholesky chol(2 * n, out_tree_kkt_pattern(n, rng));
  EXPECT_LE(chol.factor_nonzeros(), 2 * chol.matrix_nonzeros());
}

TEST(SparseCholesky, RejectsIndefiniteWithoutJitter) {
  const Entries entries = {{0, 1}};
  la::SparseCholesky chol(2, entries);
  const auto values = chol.values();
  values[chol.slot(0, 0)] = 1.0;
  values[chol.slot(1, 1)] = 1.0;
  values[chol.slot(1, 0)] = 2.0;  // eigenvalues 3 and -1
  EXPECT_THROW(chol.factor(), reclaim::NumericalError);
}

TEST(SparseCholesky, JitterLiftsSmallPivotAgainstItsOwnDiagonal) {
  const Entries entries = {{0, 1}};
  la::SparseCholesky chol(2, entries);
  const auto values = chol.values();
  // Singular: the second pivot cancels to zero and is lifted to 1e-8 of
  // its diagonal entry.
  values[chol.slot(0, 0)] = 1.0;
  values[chol.slot(1, 1)] = 1.0;
  values[chol.slot(0, 1)] = 1.0;
  EXPECT_THROW(chol.factor(), reclaim::NumericalError);
  chol.clear();
  values[chol.slot(0, 0)] = 1.0;
  values[chol.slot(1, 1)] = 1.0;
  values[chol.slot(0, 1)] = 1.0;
  EXPECT_NO_THROW(chol.factor(1e-8));
  EXPECT_EQ(chol.lifted_pivots(), 1u);
}

TEST(SparseCholesky, JitterLeavesSmallButHealthyPivotsAlone) {
  // A pivot 1e-23 times the largest entry is still its own row's whole
  // diagonal: a threshold relative to max|A| would lift it, the per-pivot
  // one does not, and the solve stays exact.
  const Entries entries = {{0, 1}, {1, 2}};
  la::SparseCholesky chol(3, entries);
  const auto values = chol.values();
  values[chol.slot(0, 0)] = 1e20;
  values[chol.slot(1, 1)] = 1e-3;
  values[chol.slot(2, 2)] = 4.0;
  chol.factor(1e-12);
  EXPECT_EQ(chol.lifted_pivots(), 0u);
  la::Vector x{1.0, 1.0, 1.0};
  chol.solve(x);
  EXPECT_NEAR(x[0], 1e-20, 1e-32);
  EXPECT_NEAR(x[1], 1e3, 1e-9);
  EXPECT_NEAR(x[2], 0.25, 1e-15);
}

TEST(SparseCholesky, SlotRejectsEntriesOutsideThePattern) {
  const Entries entries = {{0, 1}};
  const la::SparseCholesky chol(3, entries);
  EXPECT_EQ(chol.slot(0, 1), chol.slot(1, 0));
  EXPECT_THROW((void)chol.slot(0, 2), reclaim::InvalidArgument);
  EXPECT_THROW((void)chol.slot(0, 3), reclaim::InvalidArgument);
}
