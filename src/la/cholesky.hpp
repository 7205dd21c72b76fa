// Dense Cholesky factorization for symmetric positive definite systems.
//
// The reference factorization: la::SparseCholesky (the barrier solver's
// Newton systems) is tested against it. It works on row-major storage
// with contiguous inner loops.
#pragma once

#include "la/matrix.hpp"

namespace reclaim::la {

/// Lower-triangular Cholesky factor of an SPD matrix.
class Cholesky {
 public:
  /// Factorizes `a` (reads the lower triangle). Throws NumericalError when
  /// a non-positive pivot (within `jitter` tolerance) is encountered.
  /// When `jitter` > 0, pivots smaller than jitter are lifted to jitter —
  /// a standard modified-Cholesky safeguard for nearly singular Hessians.
  explicit Cholesky(const Matrix& a, double jitter = 0.0);

  /// Solves A x = b via forward/backward substitution.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Log-determinant of A (twice the log-determinant of the factor).
  [[nodiscard]] double log_det() const noexcept;

  [[nodiscard]] const Matrix& factor() const noexcept { return l_; }

 private:
  Matrix l_;
};

}  // namespace reclaim::la
