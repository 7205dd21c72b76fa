#include "la/vector.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace reclaim::la {

using util::require;

double dot(const Vector& a, const Vector& b) {
  require(a.size() == b.size(), "dot: dimension mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

double norm_inf(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

void axpy(double alpha, const Vector& x, Vector& y) {
  require(x.size() == y.size(), "axpy: dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(Vector& v, double alpha) {
  for (auto& x : v) x *= alpha;
}

}  // namespace reclaim::la
