#include "dist/shard.hpp"

#include "dist/flags.hpp"
#include "dist/records.hpp"

namespace mtr::dist {

ShardSpec parse_shard_spec(const std::string& spec) {
  const auto fail = [&]() -> ShardSpec {
    throw UsageError("bad shard spec '" + spec +
                     "' — expected I/N with 0 <= I < N, e.g. 0/3");
  };
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos) return fail();
  const auto index = parse_u64(spec.substr(0, slash));
  const auto count = parse_u64(spec.substr(slash + 1));
  if (!index || !count) return fail();
  ShardSpec s;
  s.index = *index;
  s.count = *count;
  if (s.count == 0 || s.index >= s.count) return fail();
  if (to_string(s) != spec) return fail();  // leading zeros: one spelling per shard
  return s;
}

std::string to_string(const ShardSpec& spec) {
  return std::to_string(spec.index) + "/" + std::to_string(spec.count);
}

}  // namespace mtr::dist
