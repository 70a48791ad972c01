// SchedulingIndex: the incrementally-maintained replacement for the
// paper's "sort every 2 s + linear scan" scheduling process. Pools
// select through it for every ordered policy, with or without the
// "linear-" prefix. It keeps one 4-ary min-heap of cache indices per
// replication stride class, ordered by the policy objective with the
// cache index as the deterministic tie-break — the exact total order
// the legacy linear scan resolves.
//
// Selection is a best-first traversal of the instance's own class heap
// (then, only when that class has no eligible machine, of the sibling
// classes merged): it pops the entries ranked ahead of the pick, one or
// two on a mostly-idle pool, at O(log n) host work each. The reported
// `examined` count is the simulated cost model, chosen by the policy:
// the bare names report the nodes visited (one or two on a mostly-idle
// pool), the "linear-" names report what the paper's O(n) scan would
// have examined, so Fig. 6's linear curves stay in simulated time.
//
// The pool calls Update(i) whenever entry i's objective inputs change
// (allocate, release, refresh) and Rebuild() after bulk reloads and
// re-sorts; both reuse the heap storage, allocation-free in steady
// state.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/policy.hpp"

namespace actyp::sched {

class SchedulingIndex {
 public:
  // `policy` must outlive the index. `instance_count` fixes the stride
  // partition (class of entry i = i mod instance_count).
  SchedulingIndex(const SchedulingPolicy* policy, std::uint32_t instance,
                  std::uint32_t instance_count);

  // Rebuilds every class heap from `cache` (Floyd heapify, O(n)).
  void Rebuild(const std::vector<CacheEntry>& cache);

  // Re-positions entry `index` after its objective inputs changed.
  void Update(const std::vector<CacheEntry>& cache, std::size_t index);

  // Equivalent to the legacy linear SchedulingPolicy::Select on the
  // same cache and context: same chosen index, and for the "linear-"
  // policies the same `examined`. `ctx.instance` may override the
  // constructor's instance; `ctx.instance_count` must match the
  // constructor's.
  [[nodiscard]] Selection Select(const std::vector<CacheEntry>& cache,
                                 const SelectionContext& ctx) const;

  [[nodiscard]] std::size_t size() const { return pos_.size(); }

 private:
  struct Node {
    std::uint32_t cls;
    std::uint32_t heap_pos;
    bool eligible;  // SchedulingPolicy::Eligible at the last Rebuild/Update
  };

  [[nodiscard]] bool Less(const std::vector<CacheEntry>& cache,
                          std::uint32_t a, std::uint32_t b) const {
    if (policy_->Better(cache[a], cache[b])) return true;
    if (policy_->Better(cache[b], cache[a])) return false;
    return a < b;  // the linear scan's first-wins tie-break
  }

  void SiftUp(const std::vector<CacheEntry>& cache, std::uint32_t cls,
              std::size_t pos);
  void SiftDown(const std::vector<CacheEntry>& cache, std::uint32_t cls,
                std::size_t pos);

  // Best-first traversal of one class heap (own == true) or of every
  // class except `own_cls` merged. Returns SIZE_MAX when no eligible
  // entry passes the filter; adds visited nodes to `examined`. Classes
  // holding no eligible entry are counted as fully visited without a
  // traversal.
  [[nodiscard]] std::size_t Search(const std::vector<CacheEntry>& cache,
                                   const SelectionContext& ctx,
                                   std::uint32_t own_cls, bool own,
                                   std::size_t* examined) const;

  const SchedulingPolicy* policy_;
  std::uint32_t instance_;
  std::uint32_t stride_;
  std::vector<std::vector<std::uint32_t>> heaps_;  // per class: cache indices
  std::vector<std::uint32_t> eligible_;            // per class: eligible count
  std::vector<Node> pos_;                          // cache index -> heap slot
  // Scratch for Search: a binary min-heap of cache indices under Less.
  mutable std::vector<std::uint32_t> frontier_;
};

}  // namespace actyp::sched
