// SeedSink: the thread-safe box that sweep cells drop their per-cell
// output into — span rings for --trace-out, flight-event streams for
// --flight-out, gauge series for --telemetry-out. Cells running on
// ThreadPool workers Add() in completion order; Take() drains in
// (seed, size, content) order, content compared item by item with the
// payload's operator<, so a file written from a drain is byte-identical
// whatever --jobs was. Two cells equal under that order are
// interchangeable in the output.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace actyp {

// One sweep cell's deposit, keyed by the cell's seed.
template <typename T>
struct SeedCell {
  std::uint64_t seed = 0;
  std::vector<T> items;
};

template <typename T>
class SeedSink {
 public:
  void Add(std::uint64_t seed, std::vector<T> items) {
    std::lock_guard<std::mutex> lock(mu_);
    cells_.push_back(SeedCell<T>{seed, std::move(items)});
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cells_.size();
  }

  // Drains the sink in deterministic order.
  [[nodiscard]] std::vector<SeedCell<T>> Take() {
    std::vector<SeedCell<T>> cells;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cells.swap(cells_);
    }
    std::sort(cells.begin(), cells.end(),
              [](const SeedCell<T>& a, const SeedCell<T>& b) {
                if (a.seed != b.seed) return a.seed < b.seed;
                if (a.items.size() != b.items.size()) {
                  return a.items.size() < b.items.size();
                }
                return std::lexicographical_compare(
                    a.items.begin(), a.items.end(), b.items.begin(),
                    b.items.end());
              });
    return cells;
  }

 private:
  mutable std::mutex mu_;
  std::vector<SeedCell<T>> cells_;
};

}  // namespace actyp
