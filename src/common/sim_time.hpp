// Simulation time: microseconds as a signed 64-bit count. Pipeline
// components read it only from NodeContext::Now(), which the
// discrete-event kernel advances.
#pragma once

#include <cstdint>

namespace actyp {

using SimTime = std::int64_t;      // absolute microseconds since epoch 0
using SimDuration = std::int64_t;  // microseconds

constexpr SimDuration Micros(std::int64_t n) { return n; }
constexpr SimDuration Millis(std::int64_t n) { return n * 1000; }
constexpr SimDuration Seconds(double s) {
  return static_cast<SimDuration>(s * 1e6);
}

constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / 1e6; }
constexpr double ToMillis(SimDuration d) { return static_cast<double>(d) / 1e3; }

}  // namespace actyp
