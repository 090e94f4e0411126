#include "report/progress.hpp"

#include <cmath>
#include <cstdio>

namespace mtr::report {

std::string fmt_duration(double seconds) {
  if (!(seconds > 0.0)) seconds = 0.0;  // also squashes NaN
  char buf[32];
  // Round to the displayed precision *before* picking the unit bucket:
  // 59.97 s must carry into "1m00s", not render as "60.0s" (and likewise
  // 3599.7 s into "1h00m", not "60m00s").
  const double tenths = std::round(seconds * 10.0) / 10.0;
  const long whole = std::lround(seconds);
  if (tenths < 60.0) {
    std::snprintf(buf, sizeof buf, "%.1fs", tenths);
  } else if (whole < 3600) {
    std::snprintf(buf, sizeof buf, "%ldm%02lds", whole / 60, whole % 60);
  } else {
    const long minutes = std::lround(seconds / 60.0);
    std::snprintf(buf, sizeof buf, "%ldh%02ldm", minutes / 60, minutes % 60);
  }
  return buf;
}

std::optional<double> eta_seconds(double elapsed_seconds, std::size_t done,
                                  std::size_t remaining) {
  if (done == 0 || remaining == 0) return std::nullopt;
  if (!(elapsed_seconds > 0.0)) return std::nullopt;  // also squashes NaN
  return elapsed_seconds / static_cast<double>(done) *
         static_cast<double>(remaining);
}

ProgressReporter::ProgressReporter(std::ostream& os, bool enabled)
    : os_(os), enabled_(enabled) {}

void ProgressReporter::begin(const std::string& label, std::size_t total_cells) {
  label_ = label;
  done_ = 0;
  total_ = total_cells;
  active_ = true;
  start_ = std::chrono::steady_clock::now();
  if (enabled_)
    os_ << "[" << label_ << "] " << total_ << " cell(s) queued\n" << std::flush;
}

void ProgressReporter::on_cell(const core::CellEvent& ev) {
  if (!active_) return;
  ++done_;
  if (!enabled_ || !per_cell_) return;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start_;
  const std::size_t total = total_ > 0 ? total_ : done_;
  std::string coords;  // names each swept scenario axis, default value included
  core::append_cell_coords(coords, ev.cell, ev.geometry, " ");
  os_ << "[" << label_ << " " << done_ << "/" << total << "] " << coords
      << " cell=" << fmt_duration(ev.wall_seconds)
      << " elapsed=" << fmt_duration(elapsed.count());
  if (const auto eta = eta_seconds(elapsed.count(), done_, total - done_))
    os_ << " eta=" << fmt_duration(*eta);
  os_ << '\n' << std::flush;
}

void ProgressReporter::shrink_total(std::size_t n) {
  if (!active_) return;
  total_ = total_ > done_ + n ? total_ - n : done_;
}

void ProgressReporter::finish() {
  if (!active_) return;
  active_ = false;
  if (!enabled_) return;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start_;
  os_ << "[" << label_ << "] done: " << done_ << " cell(s) in "
      << fmt_duration(elapsed.count()) << '\n'
      << std::flush;
}

}  // namespace mtr::report
