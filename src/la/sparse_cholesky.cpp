#include "la/sparse_cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

#include "util/error.hpp"

namespace reclaim::la {

using util::require;

SparseCholesky::SparseCholesky(std::size_t n, std::span<const Entry> entries)
    : n_(n), position_(n, 0), row_start_(n + 1, 0), work_(n, 0.0) {
  std::vector<std::vector<std::size_t>> adjacent(n);
  for (const auto& [i, j] : entries) {
    require(i < n && j < n, "SparseCholesky: entry out of range");
    if (i == j) continue;
    adjacent[i].push_back(j);
    adjacent[j].push_back(i);
  }
  std::size_t off_diagonal = 0;
  for (auto& a : adjacent) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    off_diagonal += a.size();
  }
  matrix_nonzeros_ = n + off_diagonal / 2;

  // Minimum degree on the explicit elimination graph. Eliminating v joins
  // its remaining neighbours into a clique, and those neighbours are
  // exactly column v of the factor. Stale heap entries (a degree that has
  // changed since) are skipped when popped.
  using Candidate = std::pair<std::size_t, std::size_t>;  // (degree, node)
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> heap;
  for (std::size_t v = 0; v < n; ++v) heap.push({adjacent[v].size(), v});
  std::vector<char> eliminated(n, 0);
  std::vector<std::size_t> stamp(n, 0);
  std::size_t clock = 0;
  order_.reserve(n);
  col_start_.reserve(n + 1);
  col_start_.push_back(0);
  while (order_.size() < n) {
    const auto [degree, v] = heap.top();
    heap.pop();
    if (eliminated[v] != 0 || degree != adjacent[v].size()) continue;
    eliminated[v] = 1;
    position_[v] = order_.size();
    order_.push_back(v);
    const std::vector<std::size_t> neighbours = std::move(adjacent[v]);
    row_index_.push_back(v);
    row_index_.insert(row_index_.end(), neighbours.begin(), neighbours.end());
    col_start_.push_back(row_index_.size());
    for (const std::size_t u : neighbours) {
      auto& a = adjacent[u];
      a.erase(std::find(a.begin(), a.end(), v));
      ++clock;
      for (const std::size_t w : a) stamp[w] = clock;
      for (const std::size_t w : neighbours) {
        if (w != u && stamp[w] != clock) a.push_back(w);
      }
      heap.push({a.size(), u});
    }
  }

  // Rows in elimination positions, ascending within each column (so the
  // diagonal, the column's smallest position, comes first).
  for (auto& r : row_index_) r = position_[r];
  for (std::size_t k = 0; k < n; ++k) {
    const auto first = row_index_.begin();
    std::sort(first + static_cast<std::ptrdiff_t>(col_start_[k]),
              first + static_cast<std::ptrdiff_t>(col_start_[k + 1]));
  }
  values_.assign(row_index_.size(), 0.0);

  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t p = col_start_[k] + 1; p < col_start_[k + 1]; ++p)
      ++row_start_[row_index_[p] + 1];
  }
  for (std::size_t j = 0; j < n; ++j) row_start_[j + 1] += row_start_[j];
  row_col_.resize(row_start_[n]);
  row_entry_.resize(row_start_[n]);
  std::vector<std::size_t> next(row_start_.begin(), row_start_.end() - 1);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t p = col_start_[k] + 1; p < col_start_[k + 1]; ++p) {
      const std::size_t e = next[row_index_[p]]++;
      row_col_[e] = k;
      row_entry_[e] = p;
    }
  }
}

std::size_t SparseCholesky::slot(std::size_t i, std::size_t j) const {
  require(i < n_ && j < n_, "SparseCholesky::slot: index out of range");
  const std::size_t col = std::min(position_[i], position_[j]);
  const std::size_t row = std::max(position_[i], position_[j]);
  const std::size_t* first = row_index_.data() + col_start_[col];
  const std::size_t* last = row_index_.data() + col_start_[col + 1];
  const std::size_t* it = std::lower_bound(first, last, row);
  require(it != last && *it == row,
          "SparseCholesky::slot: entry outside the pattern");
  return static_cast<std::size_t>(it - row_index_.data());
}

void SparseCholesky::clear() { std::fill(values_.begin(), values_.end(), 0.0); }

void SparseCholesky::factor(double rel_jitter) {
  lifted_ = 0;
  // Left-looking: gather column j of the matrix into work_, subtract the
  // contribution of every earlier column with a nonzero in row j, then
  // scale. Each earlier column's rows below j lie inside column j's
  // pattern, so work_ is touched only there and is cleared afterwards.
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t begin = col_start_[j];
    const std::size_t end = col_start_[j + 1];
    for (std::size_t p = begin; p < end; ++p) work_[row_index_[p]] = values_[p];
    const double diagonal = work_[j];
    for (std::size_t e = row_start_[j]; e < row_start_[j + 1]; ++e) {
      const std::size_t first = row_entry_[e];
      const double l_jk = values_[first];
      for (std::size_t q = first; q < col_start_[row_col_[e] + 1]; ++q)
        work_[row_index_[q]] -= values_[q] * l_jk;
    }
    double pivot = work_[j];
    const double floor = rel_jitter * diagonal;
    if (!(pivot > floor)) {
      util::require_numeric(floor > 0.0,
                            "SparseCholesky: matrix is not positive definite");
      pivot = floor;
      ++lifted_;
    }
    const double l_jj = std::sqrt(pivot);
    values_[begin] = l_jj;
    work_[j] = 0.0;
    for (std::size_t p = begin + 1; p < end; ++p) {
      values_[p] = work_[row_index_[p]] / l_jj;
      work_[row_index_[p]] = 0.0;
    }
  }
}

void SparseCholesky::solve(std::span<double> b) {
  require(b.size() == n_, "SparseCholesky::solve: dimension mismatch");
  for (std::size_t k = 0; k < n_; ++k) work_[k] = b[order_[k]];
  // Forward substitution L y = P b, column by column.
  for (std::size_t k = 0; k < n_; ++k) {
    const double y = work_[k] / values_[col_start_[k]];
    work_[k] = y;
    for (std::size_t p = col_start_[k] + 1; p < col_start_[k + 1]; ++p)
      work_[row_index_[p]] -= values_[p] * y;
  }
  // Backward substitution L^T z = y.
  for (std::size_t k = n_; k-- > 0;) {
    double s = work_[k];
    for (std::size_t p = col_start_[k] + 1; p < col_start_[k + 1]; ++p)
      s -= values_[p] * work_[row_index_[p]];
    work_[k] = s / values_[col_start_[k]];
  }
  for (std::size_t k = 0; k < n_; ++k) {
    b[order_[k]] = work_[k];
    work_[k] = 0.0;
  }
}

}  // namespace reclaim::la
