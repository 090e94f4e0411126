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

std::size_t skip_json_string(std::string_view text, std::size_t from) {
  for (std::size_t j = from + 1; j < text.size(); ++j) {
    if (text[j] == '\\') {
      ++j;
    } else if (text[j] == '"') {
      return j + 1;
    }
  }
  return std::string_view::npos;
}

std::size_t skip_json_value(std::string_view text, std::size_t from) {
  constexpr std::size_t npos = std::string_view::npos;
  std::size_t i = from;
  if (i < text.size() && text[i] == '"') return skip_json_string(text, i);
  if (i < text.size() && text[i] == '{') {
    int depth = 1;
    ++i;
    while (i < text.size() && depth > 0) {
      if (text[i] == '"') {
        i = skip_json_string(text, i);
        if (i == npos) return npos;
      } else {
        if (text[i] == '{') ++depth;
        if (text[i] == '}') --depth;
        ++i;
      }
    }
    return depth == 0 ? i : npos;
  }
  while (i < text.size() && text[i] != ',' && text[i] != '}') ++i;
  return i == from ? npos : i;
}

const char* decode_json_string(std::string_view body, std::string& out) {
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] != '\\') {
      out += body[i];
      continue;
    }
    if (++i == body.size()) return "unterminated escape";
    switch (body[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (body.size() - i <= 4) return "truncated \\u escape";
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = body[++i];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return "bad \\u escape";
        }
        // The writers only escape control characters, so non-ASCII code
        // points here mean a hand-edited file; reject rather than guess.
        if (code > 0x7F) return "unsupported non-ASCII \\u escape";
        out += static_cast<char>(code);
        break;
      }
      default: return "unknown escape";
    }
  }
  return nullptr;
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
