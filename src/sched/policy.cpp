#include "sched/policy.hpp"

#include <algorithm>

namespace actyp::sched {

Selection SchedulingPolicy::Select(const std::vector<CacheEntry>& cache,
                                   const SelectionContext& ctx) const {
  Selection result;
  if (cache.empty()) return result;

  const std::uint32_t stride = std::max<std::uint32_t>(1, ctx.instance_count);
  const auto* filter = ctx.filter;
  auto consider = [&](std::size_t i) {
    ++result.examined;
    if (!Eligible(cache[i])) return;
    if (filter && !(*filter)(i, cache[i])) return;
    if (!result.found() || Better(cache[i], cache[result.index])) {
      result.index = i;
    }
  };

  // Preferred stride first: indices congruent to this instance number.
  for (std::size_t i = ctx.instance % stride; i < cache.size(); i += stride) {
    consider(i);
  }
  if (result.found() || stride == 1) return result;

  // Fall back to the machines preferred by sibling instances.
  for (std::size_t i = 0; i < cache.size(); ++i) {
    if (i % stride == ctx.instance % stride) continue;
    consider(i);
  }
  return result;
}

bool ObjectiveOrder(const SchedulingPolicy& policy,
                    const std::vector<CacheEntry>& cache,
                    std::vector<RankedEntry>* order) {
  order->resize(cache.size());
  bool moved = false;
  for (std::size_t i = 0; i < cache.size(); ++i) {
    (*order)[i] = {policy.Key(cache[i]), static_cast<std::uint32_t>(i)};
    moved = moved || (i > 0 && (*order)[i].key < (*order)[i - 1].key);
  }
  if (moved) std::sort(order->begin(), order->end());
  return moved;
}

Selection RoundRobinPolicy::Select(const std::vector<CacheEntry>& cache,
                                   const SelectionContext& ctx) const {
  Selection result;
  const std::size_t n = cache.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = (cursor_ + step) % n;
    ++result.examined;
    if (Eligible(cache[i]) && (!ctx.filter || (*ctx.filter)(i, cache[i]))) {
      result.index = i;
      cursor_ = (i + 1) % n;
      return result;
    }
  }
  return result;
}

Selection RandomPolicy::Select(const std::vector<CacheEntry>& cache,
                               const SelectionContext& ctx) const {
  Selection result;
  const std::size_t n = cache.size();
  if (n == 0 || ctx.rng == nullptr) return result;
  // Random probing up to n attempts, then linear sweep; examined counts
  // reflect actual probes so the cost model stays honest.
  auto passes = [&](std::size_t i) {
    return Eligible(cache[i]) && (!ctx.filter || (*ctx.filter)(i, cache[i]));
  };
  for (std::size_t attempt = 0; attempt < n; ++attempt) {
    const std::size_t i = ctx.rng->NextBounded(n);
    ++result.examined;
    if (passes(i)) {
      result.index = i;
      return result;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    ++result.examined;
    if (passes(i)) {
      result.index = i;
      return result;
    }
  }
  return result;
}

Result<std::unique_ptr<SchedulingPolicy>> MakePolicy(const std::string& name) {
  // The "linear-" prefix keeps the paper's O(n) scan + periodic sort as
  // the simulated cost; the bare names are charged per index node.
  const bool linear = name.rfind("linear-", 0) == 0;
  const std::string base = linear ? name.substr(7) : name;
  if (base == "least-load" || base.empty()) {
    return std::unique_ptr<SchedulingPolicy>(new LeastLoadPolicy(!linear));
  }
  if (base == "most-memory") {
    return std::unique_ptr<SchedulingPolicy>(new MostMemoryPolicy(!linear));
  }
  if (base == "fastest") {
    return std::unique_ptr<SchedulingPolicy>(new FastestPolicy(!linear));
  }
  if (!linear && base == "round-robin") {
    return std::unique_ptr<SchedulingPolicy>(new RoundRobinPolicy());
  }
  if (!linear && base == "random") {
    return std::unique_ptr<SchedulingPolicy>(new RandomPolicy());
  }
  return InvalidArgument("unknown scheduling policy '" + name + "'");
}

}  // namespace actyp::sched
