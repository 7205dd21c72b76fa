// Dense vectors, shared by the dense and sparse factorizations, and the
// BLAS-1 helpers the barrier solver uses.
#pragma once

#include <vector>

namespace reclaim::la {

using Vector = std::vector<double>;

/// Dot product; requires equal sizes.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// Infinity norm.
[[nodiscard]] double norm_inf(const Vector& v);

}  // namespace reclaim::la
