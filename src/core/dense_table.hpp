// Per-process hook state indexed densely by id.
//
// The kernel issues pids from 1 without gaps and a tgid is its leader's pid
// (the process arena, kernel.cpp), so a hook that keeps one record per pid
// or tgid needs no hash map: a vector grown on demand holds one slot per
// process the cell created, and every lookup is an index.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ensure.hpp"

namespace mtr::core {

/// One T per id (Pid or Tgid). Slots never written read as T{}.
template <typename Id, typename T>
class DenseTable {
 public:
  /// The slot for `id`, growing the table to reach it.
  T& operator[](Id id) {
    const auto i = static_cast<std::size_t>(id.v);  // invalid ids wrap high
    if (i >= slots_.size()) [[unlikely]] grow(id);
    return slots_[i];
  }

  /// The slot for `id`, or T{} when it was never written (or `id` is invalid).
  T get(Id id) const {
    const auto i = static_cast<std::size_t>(id.v);
    return i < slots_.size() ? slots_[i] : T{};
  }

  auto begin() const { return slots_.begin(); }
  auto end() const { return slots_.end(); }
  auto begin() { return slots_.begin(); }
  auto end() { return slots_.end(); }

 private:
  // Out of line, so the lookup above stays small enough to inline.
  [[gnu::noinline]] void grow(Id id) {
    MTR_ENSURE_MSG(id.valid(), "dense table indexed by " << id.v);
    slots_.resize(static_cast<std::size_t>(id.v) + 1);
  }

  std::vector<T> slots_;
};

}  // namespace mtr::core
