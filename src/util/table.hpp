// Console table / CSV rendering for the experiment harness.
//
// Every bench binary prints its results through Table so that the output
// resembles the rows/series a paper table would report and stays easy to
// diff between runs.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace reclaim::util {

/// A simple right-aligned text table with a title and column headers.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  /// Appends a pre-formatted row; must match the number of columns.
  void add_row(std::vector<std::string> cells);

  /// Formats a double with `precision` significant-digit fixed notation.
  [[nodiscard]] static std::string fmt(double value, int precision = 4);
  /// Formats an integer-valued cell.
  [[nodiscard]] static std::string fmt(std::size_t value);
  [[nodiscard]] static std::string fmt(int value);
  /// Formats a ratio as e.g. "1.2345x".
  [[nodiscard]] static std::string fmt_ratio(double value, int precision = 4);
  /// Formats a percentage as e.g. "12.3%".
  [[nodiscard]] static std::string fmt_pct(double fraction, int precision = 1);

  /// Renders the table, boxed, to `out`.
  void print(std::ostream& out) const;

  /// Renders the table as CSV (header row + data rows) to `out`.
  void print_csv(std::ostream& out) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace reclaim::util
