// Shard planning for distributed sweeps: a deterministic partition of an
// invocation's cells into K disjoint shards, dealt by cost class. A cell's
// class is "has an attack" or "baseline" (core::cell_has_attack), and its
// class position is the number of earlier cells in the invocation with the
// same class; shard I owns the cells whose class position % K == I. Each
// shard so gets an even share of the long attacked cells and of the short
// baseline ones, and the partition depends only on the spec and the
// selected sweeps — any machine planning the same sweeps agrees on who
// owns what. Shards of one fleet must come from one build: output written
// under another assignment rule does not resume or merge with this one's
// (mtr_merge refuses the overlap as a duplicate, exit 3).
#pragma once

#include <cstdint>
#include <string>

namespace mtr::dist {

struct ShardSpec {
  std::uint64_t index = 0;  // 0-based, < count
  std::uint64_t count = 1;  // 1 = no sharding

  bool sharded() const { return count > 1; }
  /// `class_position`: the cell's position within its cost class.
  bool owns(std::uint64_t class_position) const {
    return class_position % count == index;
  }
};

/// Parses "I/N" (0-based shard I of N, e.g. "0/3"); throws UsageError
/// with a usage hint on malformed or out-of-range specs, and on leading
/// zeros: an accepted spec equals its to_string.
ShardSpec parse_shard_spec(const std::string& spec);

/// "I/N" — the parseable rendering.
std::string to_string(const ShardSpec& spec);

}  // namespace mtr::dist
