#include "dist/json.hpp"

#include <optional>
#include <stdexcept>

#include "common/format.hpp"
#include "common/parse.hpp"

namespace mtr::dist::json {
namespace {

/// Minimal recursive-descent JSON parser — enough for the closed grammar
/// our writers emit (and strict about everything else).
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes after the JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("offset " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch)
      fail(std::string("expected '") + ch + "', got '" + s_[pos_] + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    const char ch = peek();
    switch (ch) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.text = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Value v;
        v.kind = Value::Kind::kBool;
        v.boolean = ch == 't';
        if (!consume_literal(ch == 't' ? "true" : "false"))
          fail("bad literal");
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      }
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      if (peek() != '"') fail("object key must be a string");
      std::string key = parse_string();
      expect(':');
      v.fields.emplace_back(std::move(key), parse_value());
      const char next = peek();
      ++pos_;
      if (next == '}') return v;
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      const char next = peek();
      ++pos_;
      if (next == ']') return v;
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    const std::size_t end = skip_json_string(s_, pos_ - 1);
    if (end == std::string_view::npos) fail("unterminated string");
    std::string out;
    if (const char* why =
            decode_json_string(s_.substr(pos_, end - 1 - pos_), out))
      fail(why);
    pos_ = end;
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t d = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      return pos_ > d;
    };
    if (!digits()) fail("bad number");
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("bad number fraction");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) fail("bad number exponent");
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    v.text.assign(s_, start, pos_ - start);
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

[[noreturn]] void field_error(std::string_view name, const char* what) {
  throw std::runtime_error("field '" + std::string(name) + "' " + what);
}

}  // namespace

Value parse_document(std::string_view text) {
  return Parser(text).parse_document();
}

const Value& require(const Value& obj, std::string_view name) {
  if (obj.kind != Value::Kind::kObject)
    field_error(name, "looked up on a non-object");
  const Value* v = obj.find(name);
  if (v == nullptr) field_error(name, "is missing");
  return *v;
}

std::uint64_t as_u64(const Value& v, std::string_view what) {
  if (v.kind != Value::Kind::kNumber) field_error(what, "is not a number");
  const std::optional<std::uint64_t> x = parse_u64(v.text);
  if (!x) field_error(what, "is not an unsigned integer");
  return *x;
}

std::int64_t as_i64(const Value& v, std::string_view what) {
  if (v.kind != Value::Kind::kNumber) field_error(what, "is not a number");
  const std::optional<std::int64_t> x = parse_number<std::int64_t>(v.text);
  if (!x) field_error(what, "is not an integer");
  return *x;
}

double as_f64(const Value& v, std::string_view what) {
  if (v.kind != Value::Kind::kNumber) field_error(what, "is not a number");
  const std::optional<double> x = parse_f64(v.text);
  if (!x) field_error(what, "is not a double");
  return *x;
}

std::uint64_t get_u64(const Value& obj, std::string_view name) {
  return as_u64(require(obj, name), name);
}

double get_f64(const Value& obj, std::string_view name) {
  return as_f64(require(obj, name), name);
}

std::string get_string(const Value& obj, std::string_view name) {
  const Value& v = require(obj, name);
  if (v.kind != Value::Kind::kString) field_error(name, "is not a string");
  return v.text;
}

const Value& get_array(const Value& obj, std::string_view name) {
  const Value& v = require(obj, name);
  if (v.kind != Value::Kind::kArray) field_error(name, "is not an array");
  return v;
}

const Value& get_object(const Value& obj, std::string_view name) {
  const Value& v = require(obj, name);
  if (v.kind != Value::Kind::kObject) field_error(name, "is not an object");
  return v;
}

}  // namespace mtr::dist::json
