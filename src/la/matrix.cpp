#include "la/matrix.hpp"

#include "util/error.hpp"

namespace reclaim::la {

using util::require;

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::multiply(const Vector& x) const {
  require(x.size() == cols_, "Matrix::multiply: dimension mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += a[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Vector Matrix::multiply_transposed(const Vector& x) const {
  require(x.size() == rows_, "Matrix::multiply_transposed: dimension mismatch");
  Vector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = row(r);
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += a[c] * xr;
  }
  return y;
}

Matrix Matrix::multiply(const Matrix& other) const {
  require(cols_ == other.rows_, "Matrix::multiply: dimension mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.row(k);
      double* orow = out.row(i);
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

}  // namespace reclaim::la
