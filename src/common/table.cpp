#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/ensure.hpp"

namespace mtr {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  MTR_ENSURE(!headers_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  MTR_ENSURE_MSG(cells.size() == headers_.size(),
                 "row arity " << cells.size() << " != header arity " << headers_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::render(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << cells[c];
      if (c + 1 < cells.size()) os << "  ";
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w;
  os << std::string(total + 2 * (widths.size() - 1), '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

BarChart::BarChart(std::string title, std::string unit)
    : title_(std::move(title)), unit_(std::move(unit)) {}

void BarChart::add(StackedBar bar) { entries_.push_back({false, std::move(bar)}); }

void BarChart::add_gap() { entries_.push_back({true, {}}); }

void BarChart::render(std::ostream& os, std::size_t width) const {
  double peak = 0.0;
  std::size_t label_w = 0;
  for (const auto& e : entries_) {
    if (e.gap) continue;
    peak = std::max(peak, e.bar.user + e.bar.system);
    label_w = std::max(label_w, e.bar.label.size());
  }
  if (peak <= 0.0) peak = 1.0;

  os << title_ << '\n';
  for (const auto& e : entries_) {
    if (e.gap) {
      os << '\n';
      continue;
    }
    const double total = e.bar.user + e.bar.system;
    const auto scale = [&](double v) {
      return static_cast<std::size_t>(std::lround(v / peak * static_cast<double>(width)));
    };
    std::size_t ucols = scale(e.bar.user);
    std::size_t tcols = scale(total);
    if (tcols < ucols) tcols = ucols;
    os << std::left << std::setw(static_cast<int>(label_w)) << e.bar.label << " |"
       << std::string(ucols, 'U') << std::string(tcols - ucols, 'S')
       << std::string(width - std::min(width, tcols), ' ') << "| "
       << fmt_double(e.bar.user) << "u + " << fmt_double(e.bar.system) << "s = "
       << fmt_double(total) << ' ' << unit_ << '\n';
  }
}

std::string fmt_double(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt_ratio(double v, int precision) {
  return fmt_double(v, precision) + "x";
}

std::string fmt_percent_delta(double v, int precision) {
  std::ostringstream os;
  os << std::showpos << std::fixed << std::setprecision(precision) << v << '%';
  return os.str();
}

}  // namespace mtr
