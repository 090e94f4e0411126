#include "common/format.hpp"

#include <charconv>

namespace mtr {
namespace {

template <typename... Args>
void append_chars(std::string& out, Args... args) {
  char buf[32];  // %.17g needs at most 24 bytes, a 64-bit integer 20
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, args...);
  out.append(buf, r.ptr);
}

}  // namespace

void append_json_quoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += "\\u00";
          out += kHex[static_cast<unsigned char>(ch) >> 4];
          out += kHex[static_cast<unsigned char>(ch) & 0xf];
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_quoted(out, s);
  return out;
}

void append_number(std::string& out, double v) {
  append_chars(out, v, std::chars_format::general, 17);
}

std::string json_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

void append_number(std::string& out, std::uint64_t v) { append_chars(out, v); }
void append_number(std::string& out, std::int64_t v) { append_chars(out, v); }

}  // namespace mtr
