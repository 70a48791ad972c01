// A replaced global operator new that counts heap allocations, for the
// tests that hold a path to an allocation budget. Include it from one
// translation unit per test binary. It sees every allocation only where
// no sanitizer replaces the allocator: ACTYP_COUNT_ALLOCATIONS is 0
// under ASan, TSan and MSan, and the counting tests skip there.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ACTYP_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ACTYP_COUNT_ALLOCATIONS 0
#endif
#endif
#if !defined(ACTYP_COUNT_ALLOCATIONS)
#define ACTYP_COUNT_ALLOCATIONS 1
#endif

#if ACTYP_COUNT_ALLOCATIONS
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Array and nothrow forms forward to this one in libstdc++. The deletes
// stay out of line: inlined, GCC would see free() on new'd pointers.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif
