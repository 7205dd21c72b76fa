// Sparse Cholesky factorization with a fill-reducing ordering.
//
// The barrier solver's Newton system has a fixed sparsity pattern for the
// whole solve (the constraint cliques), and new values every step. So the
// work splits in two:
//
//   symbolic (constructor, once)  minimum-degree ordering of the pattern's
//                                 graph and the factor's pattern, fill
//                                 included;
//   numeric  (factor, every step) a left-looking column factorization of
//                                 values assembled into that pattern.
//
// Values live in the factor's own layout (lower triangle, permuted
// columns), so assembly scatters straight into the array that is factored
// in place. `slot` maps an entry of the original matrix to its position.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "la/vector.hpp"

namespace reclaim::la {

class SparseCholesky {
 public:
  using Entry = std::pair<std::size_t, std::size_t>;

  /// Symbolic phase for the n x n symmetric pattern whose off-diagonal
  /// nonzeros are `entries`: either orientation, duplicates allowed, and
  /// (i, i) ignored — the diagonal is always in the pattern. The ordering
  /// is exact minimum degree, ties to the lower index.
  SparseCholesky(std::size_t n, std::span<const Entry> entries);

  /// Position of entry (i, j) — equivalently (j, i) — in values(). Throws
  /// InvalidArgument when the entry is outside the pattern.
  [[nodiscard]] std::size_t slot(std::size_t i, std::size_t j) const;

  /// The matrix's lower triangle, in the factor's layout; assemble into it
  /// through slot(). Fill positions must stay zero (clear() zeroes all).
  [[nodiscard]] std::span<double> values() noexcept { return values_; }
  void clear();

  /// Numeric phase: factors the assembled matrix in place. A pivot at or
  /// below `rel_jitter` times its own diagonal entry of the matrix is
  /// lifted to that value (a modified Cholesky, judged per pivot so one
  /// badly scaled row cannot perturb the others). Throws NumericalError
  /// when a pivot is not positive and cannot be lifted.
  void factor(double rel_jitter = 0.0);

  /// Solves A x = b in place with the last factor().
  void solve(std::span<double> b);

  /// Lower-triangle nonzeros (diagonal included) of the matrix pattern and
  /// of the factor pattern; their difference is the fill.
  [[nodiscard]] std::size_t matrix_nonzeros() const noexcept {
    return matrix_nonzeros_;
  }
  [[nodiscard]] std::size_t factor_nonzeros() const noexcept {
    return values_.size();
  }
  /// Pivots the last factor() lifted.
  [[nodiscard]] std::size_t lifted_pivots() const noexcept { return lifted_; }

 private:
  std::size_t n_ = 0;
  std::size_t matrix_nonzeros_ = 0;
  std::size_t lifted_ = 0;
  std::vector<std::size_t> order_;     ///< k-th eliminated original index
  std::vector<std::size_t> position_;  ///< inverse of order_
  // Factor columns in elimination order: column k holds rows
  // row_index_[col_start_[k] .. col_start_[k+1]), the diagonal first and
  // the rest ascending.
  std::vector<std::size_t> col_start_;
  std::vector<std::size_t> row_index_;
  Vector values_;
  // Row pattern of the factor: row j's off-diagonal entries are at
  // positions row_entry_[row_start_[j] .. row_start_[j+1]) of values_,
  // each inside column row_col_[...].
  std::vector<std::size_t> row_start_;
  std::vector<std::size_t> row_col_;
  std::vector<std::size_t> row_entry_;
  Vector work_;
};

}  // namespace reclaim::la
