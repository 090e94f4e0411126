#include "dist/flags.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <iostream>

namespace mtr::dist {
namespace {

double finite_value(std::string_view source, std::string_view text) {
  const std::optional<double> v = parse_f64(text);
  if (!v || !std::isfinite(*v))
    throw UsageError(std::string(source) + ": invalid number '" +
                     std::string(text) + "'");
  return *v;
}

}  // namespace

Flag switch_flag(std::string_view name, bool& target, bool value) {
  return {name, 0, [&target, value](std::string_view, FlagValues) {
            target = value;
          }};
}

Flag text_flag(std::string_view name, std::string& target) {
  return {name, 1, [&target](std::string_view, FlagValues v) {
            target = v[0];
          }};
}

void apply_env(const FlagTable& table) {
  for (const Flag& flag : table) {
    if (flag.env == nullptr) continue;
    const char* s = std::getenv(flag.env);
    if (s == nullptr || *s == '\0') continue;
    const std::string_view value = s;
    flag.handle(flag.env, FlagValues(&value, 1));
  }
}

void parse_flags(int argc, const char* const* argv, const FlagTable& table,
                 const std::function<void(std::string_view)>& positional) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag = std::find_if(table.begin(), table.end(),
                                   [&](const Flag& f) { return f.name == arg; });
    if (flag == table.end()) {
      if (!arg.empty() && arg.front() == '-')
        throw UsageError("unknown flag: " + std::string(arg));
      positional(arg);
      continue;
    }
    if (argc - 1 - i < flag->values)
      throw UsageError(std::string(arg) + " requires " +
                       (flag->values == 1 ? "a value" : "two values"));
    std::array<std::string_view, 2> values;
    for (int k = 0; k < flag->values; ++k) values[k] = argv[++i];
    flag->handle(arg, FlagValues(values.data(),
                                 static_cast<std::size_t>(flag->values)));
  }
}

double positive_real(std::string_view source, std::string_view text) {
  const double v = finite_value(source, text);
  if (v <= 0.0) throw UsageError(std::string(source) + " must be > 0");
  return v;
}

double nonnegative_real(std::string_view source, std::string_view text) {
  const double v = finite_value(source, text);
  if (v < 0.0) throw UsageError(std::string(source) + " must be >= 0");
  return v;
}

int run_cli(std::string_view prog, std::string_view usage, int failure_code,
            const std::function<int()>& cli) {
  try {
    return cli();
  } catch (const UsageError& e) {
    std::cerr << prog << ": " << e.what() << "\n\n" << usage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << prog << ": " << e.what() << '\n';
    return failure_code;
  }
}

}  // namespace mtr::dist
