// Heap accounting for the suites that assert what code costs the heap.
// counting_alloc.cpp replaces the global allocation functions with ones
// that count every call and byte; `mtr_add_test(... COUNTING_ALLOC)` links
// it in. The counters only ever increase; tests snapshot them around the
// code under scrutiny.
#pragma once

#include <cstdint>

namespace mtr::test {

struct HeapCount {
  std::uint64_t bytes = 0;  // requested from operator new / new[]
  std::uint64_t calls = 0;  // operator new / new[] calls
};

/// What the global allocator has handed out so far in this process.
HeapCount heap_count();

/// What the global allocator hands out while `fn` runs.
template <typename Fn>
HeapCount heap_used_by(Fn&& fn) {
  const HeapCount before = heap_count();
  fn();
  const HeapCount after = heap_count();
  return {after.bytes - before.bytes, after.calls - before.calls};
}

}  // namespace mtr::test
