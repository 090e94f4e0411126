// Shard planning for distributed sweeps: a deterministic partition of the
// invocation-global cell-index space into K disjoint shards. Ownership is
// round-robin (cell % count == index), so every shard gets a balanced mix
// of every sweep's cells and the partition depends only on the spec — any
// machine computing the same grid agrees on who owns what.
#pragma once

#include <cstdint>
#include <string>

namespace mtr::dist {

struct ShardSpec {
  std::uint64_t index = 0;  // 0-based, < count
  std::uint64_t count = 1;  // 1 = no sharding

  bool sharded() const { return count > 1; }
  bool owns(std::uint64_t cell_index) const {
    return cell_index % count == index;
  }
};

/// Parses "I/N" (0-based shard I of N, e.g. "0/3"); throws UsageError
/// with a usage hint on malformed or out-of-range specs.
ShardSpec parse_shard_spec(const std::string& spec);

/// "I/N" — the parseable rendering.
std::string to_string(const ShardSpec& spec);

}  // namespace mtr::dist
