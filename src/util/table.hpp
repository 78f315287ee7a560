// Plain-text table rendering for the bench harness.
//
// Every bench binary regenerates one of the paper's tables or figures; the
// output format is a fixed-width ASCII table (readable in a terminal) plus
// an optional CSV dump so the series can be re-plotted.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace epp::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must match the header count.
  void add_row(std::vector<std::string> cells);
  /// Convenience: formats doubles with the given precision.
  void add_numeric_row(const std::vector<double>& cells, int precision = 3);

  /// Render as an aligned ASCII table.
  std::string to_ascii() const;
  /// Render as CSV (no quoting; cells must not contain commas).
  std::string to_csv() const;

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper for mixed-type rows).
std::string fmt(double value, int precision = 3);

}  // namespace epp::util
