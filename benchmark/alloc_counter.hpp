// Process-wide heap allocation counters, maintained by the global
// operator new replacement in alloc_counter.cpp. Linked only into the
// traced binary.
#pragma once

#include <cstdint>

namespace actyp::benchmark {

struct AllocCount {
  std::uint64_t calls = 0;  // operator new calls (every form)
  std::uint64_t bytes = 0;  // bytes requested by those calls
};

[[nodiscard]] AllocCount AllocCounts();

inline AllocCount operator-(const AllocCount& a, const AllocCount& b) {
  return {a.calls - b.calls, a.bytes - b.bytes};
}

}  // namespace actyp::benchmark
