// Text rendering for experiment output: aligned tables and paper-style
// grouped bar charts (the benches reproduce the figures of the paper as
// ASCII bars; the result sinks write the machine-readable CSV).
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace mtr {

/// Column-aligned text table. Cells are strings; headers set the column count.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const { return rows_.size(); }

  /// Renders with a header rule and two-space gutters.
  void render(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// One bar of a grouped bar chart, split into a stacked (utime, stime) pair
/// exactly like the paper's figures.
struct StackedBar {
  std::string label;   // e.g. "O normal", "O attacked"
  double user = 0.0;   // seconds of user time
  double system = 0.0; // seconds of system time
};

/// Renders grouped stacked horizontal bars with a shared scale, mirroring
/// the paper's per-figure layout (one normal/attacked pair per program).
class BarChart {
 public:
  explicit BarChart(std::string title, std::string unit = "s");

  void add(StackedBar bar);
  /// Inserts a blank separator line between groups.
  void add_gap();

  void render(std::ostream& os, std::size_t width = 56) const;

 private:
  struct Entry {
    bool gap = false;
    StackedBar bar;
  };
  std::string title_;
  std::string unit_;
  std::vector<Entry> entries_;
};

/// Formats a double with fixed precision (default 2 digits).
std::string fmt_double(double v, int precision = 2);

/// Formats a ratio as "1.87x".
std::string fmt_ratio(double v, int precision = 2);

/// Formats a percentage as "+12.3%".
std::string fmt_percent_delta(double v, int precision = 1);

}  // namespace mtr
