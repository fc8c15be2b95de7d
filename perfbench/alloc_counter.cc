// Counting global operator new for the driver binary only: every
// allocation bumps a per-thread counter, so a single-threaded replay can
// report allocations per record without background threads (WAL commit,
// training) leaking into its count.
#include <cstdlib>
#include <new>

#include "common.h"

namespace {

thread_local uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  ++t_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size == 0 ? a : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

uint64_t perfbench::ThreadAllocations() { return t_allocations; }

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
