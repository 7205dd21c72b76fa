// Dense row-major matrix and BLAS-2 style products.
//
// The dense toolkit is small: the simplex tableau and a reference Cholesky
// (the oracle the sparse factorization is tested against). Everything is
// self-contained (no external BLAS).
#pragma once

#include <cstddef>
#include <vector>

#include "la/vector.hpp"

namespace reclaim::la {

class Matrix {
 public:
  Matrix() = default;
  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);
  /// rows x cols matrix filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, double value);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Raw contiguous row pointer (row-major storage).
  [[nodiscard]] double* row(std::size_t r) noexcept { return data_.data() + r * cols_; }
  [[nodiscard]] const double* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  [[nodiscard]] static Matrix identity(std::size_t n);

  /// y = A x. Requires x.size() == cols(). Result has rows() entries.
  [[nodiscard]] Vector multiply(const Vector& x) const;

  /// y = A^T x. Requires x.size() == rows(). Result has cols() entries.
  [[nodiscard]] Vector multiply_transposed(const Vector& x) const;

  /// C = A B.
  [[nodiscard]] Matrix multiply(const Matrix& other) const;

  [[nodiscard]] Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace reclaim::la
