// The one argv parser behind mtr_sweep, mtr_fleet, mtr_merge and
// mtr_inspect. Each CLI declares a table of flags: a name, how many values
// it takes (0, 1, or 2 for `--compare A B`), a handler, and optionally the
// environment variable that seeds its default. Values are strict: trailing
// garbage, NaN/±inf and integers that do not fit the destination type are
// refused with a UsageError, which every CLI turns into exit code 2.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/parse.hpp"

namespace mtr::dist {

/// A malformed command line, environment default, shard spec or fault
/// spec: every CLI prints it with its usage text and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

using FlagValues = std::span<const std::string_view>;

struct Flag {
  std::string_view name;  // "--scale"
  int values = 0;         // tokens consumed after the name: 0, 1 or 2
  /// `source` is the flag, or the environment variable standing in for it,
  /// so error messages name what the user typed.
  std::function<void(std::string_view source, FlagValues values)> handle;
  const char* env = nullptr;  // one-value flags: env var read first
};

using FlagTable = std::vector<Flag>;

/// Runs every entry's environment variable, when set and non-empty,
/// through its handler.
void apply_env(const FlagTable& table);

/// Walks argv[1..argc): a token naming a table entry consumes that entry's
/// values, any other token starting with '-' is an unknown flag, and the
/// rest go to `positional`.
void parse_flags(int argc, const char* const* argv, const FlagTable& table,
                 const std::function<void(std::string_view)>& positional);

/// Strict decimal integer that fits T and is at least Min.
template <typename T, T Min = 0>
T int_value(std::string_view source, std::string_view text) {
  const std::string what(source);
  const std::optional<std::uint64_t> v = parse_u64(text);
  if (!v)
    throw UsageError(what + ": invalid integer '" + std::string(text) + "'");
  if (*v > std::numeric_limits<T>::max())
    throw UsageError(what + ": " + std::string(text) +
                     " is out of range (max " +
                     std::to_string(std::numeric_limits<T>::max()) + ")");
  if (*v < Min) throw UsageError(what + " must be >= " + std::to_string(Min));
  return static_cast<T>(*v);
}

/// Strict finite double > 0 / >= 0.
double positive_real(std::string_view source, std::string_view text);
double nonnegative_real(std::string_view source, std::string_view text);

/// A zero-value flag that stores `value` into `target`.
Flag switch_flag(std::string_view name, bool& target, bool value = true);

/// A one-value flag that stores its value verbatim.
Flag text_flag(std::string_view name, std::string& target);

/// A one-value flag that stores `parse(source, value)` into `target`.
template <typename T>
Flag value_flag(std::string_view name, T& target,
                std::type_identity_t<T> (*parse)(std::string_view,
                                                 std::string_view),
                const char* env = nullptr) {
  return {name, 1,
          [&target, parse](std::string_view src, FlagValues v) {
            target = parse(src, v[0]);
          },
          env};
}

/// The shared `main` body: runs `cli`. A UsageError prints "PROG: message"
/// and `usage`, then returns 2; any other exception prints "PROG: message"
/// and returns `failure_code`.
int run_cli(std::string_view prog, std::string_view usage, int failure_code,
            const std::function<int()>& cli);

}  // namespace mtr::dist
