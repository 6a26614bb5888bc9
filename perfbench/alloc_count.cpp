// Counting global allocator, as in bench_kernel_hotpath and bench_fleet,
// but per thread: two workers run units side by side, and each span must
// carry only the allocations of the thread that opened it. Every variant
// funnels through malloc so array, nothrow and over-aligned forms all count.
#include <cstdlib>
#include <new>

#include "trace.hpp"

namespace {
thread_local std::uint64_t t_allocs = 0;
}

std::uint64_t perfbench::thread_allocs() { return t_allocs; }

void* operator new(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t a) {
  ++t_allocs;
  const auto align = static_cast<std::size_t>(a);
  const std::size_t size = n == 0 ? align : (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
