// Counting replacement of the global allocation functions (see
// counting_alloc.hpp).
#include "counting_alloc.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_calls{0};

void* counted_alloc(std::size_t n) {
  g_bytes += n;
  ++g_calls;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

mtr::test::HeapCount mtr::test::heap_count() { return {g_bytes.load(), g_calls.load()}; }

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
