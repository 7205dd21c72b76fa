// Dense vectors and BLAS-1 style helpers, shared by the dense and sparse
// factorizations.
#pragma once

#include <vector>

namespace reclaim::la {

using Vector = std::vector<double>;

/// Dot product; requires equal sizes.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
[[nodiscard]] double norm2(const Vector& v);

/// Infinity norm.
[[nodiscard]] double norm_inf(const Vector& v);

/// y += alpha * x (in place); requires equal sizes.
void axpy(double alpha, const Vector& x, Vector& y);

/// Element-wise scale: v *= alpha.
void scale(Vector& v, double alpha);

}  // namespace reclaim::la
