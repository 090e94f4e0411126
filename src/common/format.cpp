#include "common/format.hpp"

#include <cstdio>
#include <iomanip>
#include <sstream>

namespace mtr {

std::string fmt_seconds(Cycles c, CpuHz hz, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << cycles_to_seconds(c, hz) << 's';
  return os.str();
}

std::string fmt_ticks(Ticks t, TimerHz hz, int precision) {
  std::ostringstream os;
  os << t.v << " ticks (" << std::fixed << std::setprecision(precision)
     << ticks_to_seconds(t, hz) << "s @" << hz.v << "HZ)";
  return os.str();
}

std::string fmt_cycles(Cycles c) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  if (c.v >= 1'000'000'000ULL) {
    os << static_cast<double>(c.v) / 1e9 << " Gcy";
  } else if (c.v >= 1'000'000ULL) {
    os << static_cast<double>(c.v) / 1e6 << " Mcy";
  } else if (c.v >= 1'000ULL) {
    os << static_cast<double>(c.v) / 1e3 << " kcy";
  } else {
    os << c.v << " cy";
  }
  return os.str();
}

std::string fmt_usage(const CpuUsageTicks& u, TimerHz hz, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision)
     << "u=" << ticks_to_seconds(u.utime, hz) << "s s=" << ticks_to_seconds(u.stime, hz)
     << 's';
  return os.str();
}

std::string fmt_usage(const CpuUsageCycles& u, CpuHz hz, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision)
     << "u=" << cycles_to_seconds(u.user, hz) << "s s=" << cycles_to_seconds(u.system, hz)
     << 's';
  return os.str();
}

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace mtr
