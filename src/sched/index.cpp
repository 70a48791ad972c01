#include "sched/index.hpp"

#include <algorithm>

namespace actyp::sched {
namespace {

constexpr std::uint32_t kArity = 4;

}  // namespace

SchedulingIndex::SchedulingIndex(const SchedulingPolicy* policy,
                                 std::uint32_t instance,
                                 std::uint32_t instance_count)
    : policy_(policy),
      instance_(instance),
      stride_(std::max<std::uint32_t>(1, instance_count)) {
  heaps_.resize(stride_);
  eligible_.resize(stride_);
}

void SchedulingIndex::Rebuild(const std::vector<CacheEntry>& cache) {
  for (auto& heap : heaps_) heap.clear();
  std::fill(eligible_.begin(), eligible_.end(), 0);
  pos_.resize(cache.size());
  for (std::size_t i = 0; i < cache.size(); ++i) {
    const auto cls = static_cast<std::uint32_t>(i % stride_);
    const bool eligible = SchedulingPolicy::Eligible(cache[i]);
    pos_[i] = Node{cls, static_cast<std::uint32_t>(heaps_[cls].size()),
                   eligible};
    heaps_[cls].push_back(static_cast<std::uint32_t>(i));
    eligible_[cls] += eligible;
  }
  for (std::uint32_t cls = 0; cls < stride_; ++cls) {
    const std::size_t n = heaps_[cls].size();
    if (n < 2) continue;
    for (std::size_t p = (n - 2) / kArity + 1; p-- > 0;) {
      SiftDown(cache, cls, p);
    }
  }
}

void SchedulingIndex::Update(const std::vector<CacheEntry>& cache,
                             std::size_t index) {
  const Node node = pos_[index];
  const bool eligible = SchedulingPolicy::Eligible(cache[index]);
  eligible_[node.cls] += eligible;
  eligible_[node.cls] -= node.eligible;
  pos_[index].eligible = eligible;
  SiftUp(cache, node.cls, node.heap_pos);
  SiftDown(cache, node.cls, pos_[index].heap_pos);
}

void SchedulingIndex::SiftUp(const std::vector<CacheEntry>& cache,
                             std::uint32_t cls, std::size_t pos) {
  auto& heap = heaps_[cls];
  const std::uint32_t entry = heap[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!Less(cache, entry, heap[parent])) break;
    heap[pos] = heap[parent];
    pos_[heap[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap[pos] = entry;
  pos_[entry].heap_pos = static_cast<std::uint32_t>(pos);
}

void SchedulingIndex::SiftDown(const std::vector<CacheEntry>& cache,
                               std::uint32_t cls, std::size_t pos) {
  auto& heap = heaps_[cls];
  const std::uint32_t entry = heap[pos];
  const std::size_t n = heap.size();
  for (;;) {
    const std::size_t first_child = pos * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (Less(cache, heap[c], heap[best])) best = c;
    }
    if (!Less(cache, heap[best], entry)) break;
    heap[pos] = heap[best];
    pos_[heap[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap[pos] = entry;
  pos_[entry].heap_pos = static_cast<std::uint32_t>(pos);
}

std::size_t SchedulingIndex::Search(const std::vector<CacheEntry>& cache,
                                    const SelectionContext& ctx,
                                    std::uint32_t own_cls, bool own,
                                    std::size_t* examined) const {
  const auto searched = [own, own_cls](std::uint32_t cls) {
    return (cls == own_cls) == own;
  };
  std::size_t size = 0;
  std::size_t eligible = 0;
  for (std::uint32_t cls = 0; cls < stride_; ++cls) {
    if (!searched(cls)) continue;
    size += heaps_[cls].size();
    eligible += eligible_[cls];
  }
  if (eligible == 0) {
    // The traversal would visit every node and find nothing.
    *examined += size;
    return SIZE_MAX;
  }

  // The frontier pops entries in (objective, index) order; the heap
  // property guarantees the traversal visits entries in exactly the
  // order the linear scan would prefer them.
  const auto worse = [this, &cache](std::uint32_t a, std::uint32_t b) {
    return Less(cache, b, a);
  };
  frontier_.clear();
  for (std::uint32_t cls = 0; cls < stride_; ++cls) {
    if (searched(cls) && !heaps_[cls].empty()) {
      frontier_.push_back(heaps_[cls].front());
    }
  }
  std::make_heap(frontier_.begin(), frontier_.end(), worse);

  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), worse);
    const std::uint32_t entry = frontier_.back();
    frontier_.pop_back();
    ++*examined;
    if (SchedulingPolicy::Eligible(cache[entry]) &&
        (!ctx.filter || (*ctx.filter)(entry, cache[entry]))) {
      return entry;
    }
    const Node node = pos_[entry];
    const auto& heap = heaps_[node.cls];
    const std::size_t first_child =
        static_cast<std::size_t>(node.heap_pos) * kArity + 1;
    const std::size_t last_child = std::min(first_child + kArity, heap.size());
    for (std::size_t c = first_child; c < last_child; ++c) {
      frontier_.push_back(heap[c]);
      std::push_heap(frontier_.begin(), frontier_.end(), worse);
    }
  }
  return SIZE_MAX;
}

Selection SchedulingIndex::Select(const std::vector<CacheEntry>& cache,
                                  const SelectionContext& ctx) const {
  Selection result;
  if (cache.empty()) return result;
  const std::uint32_t own_cls = ctx.instance % stride_;
  std::size_t visited = 0;
  // What the paper's scan examines: the own stride class, then the
  // whole cache once it falls back to the sibling classes.
  std::size_t scanned = heaps_[own_cls].size();
  result.index = Search(cache, ctx, own_cls, /*own=*/true, &visited);
  if (!result.found() && stride_ > 1) {
    result.index = Search(cache, ctx, own_cls, /*own=*/false, &visited);
    scanned = cache.size();
  }
  result.examined = policy_->indexed() ? visited : scanned;
  return result;
}

}  // namespace actyp::sched
