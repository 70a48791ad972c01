// Global operator new/delete replacement that counts calls and bytes.
// Relaxed atomics: the LP engine allocates from worker threads, and the
// counts are only read while those threads are idle.
#include "alloc_counter.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

void* TryAllocate(std::size_t size, std::size_t alignment) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  void* p = nullptr;
  return posix_memalign(&p, alignment, size) == 0 ? p : nullptr;
}

void* Allocate(std::size_t size, std::size_t alignment) {
  if (void* p = TryAllocate(size, alignment)) return p;
  throw std::bad_alloc();
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

}  // namespace

namespace actyp::benchmark {

AllocCount AllocCounts() {
  return {g_calls.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace actyp::benchmark

void* operator new(std::size_t n) { return Allocate(n, kDefault); }
void* operator new[](std::size_t n) { return Allocate(n, kDefault); }
void* operator new(std::size_t n, std::align_val_t a) {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return TryAllocate(n, kDefault);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return TryAllocate(n, kDefault);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return TryAllocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return TryAllocate(n, static_cast<std::size_t>(a));
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
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
