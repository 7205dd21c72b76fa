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

double norm_inf(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace reclaim::la
