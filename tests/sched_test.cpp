// Tests for the scheduling policies: objective ordering, linear-search
// accounting, eligibility, per-query filters, the Fig. 8 instance-bias
// used by replicated pools, and the incrementally-maintained index's
// exact equivalence with the legacy linear scan (chosen entry, and the
// scan's examined count for the "linear-" names).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "sched/index.hpp"
#include "sched/policy.hpp"

namespace actyp::sched {
namespace {

CacheEntry Entry(double load, double memory = 256, double speed = 1.0) {
  CacheEntry entry;
  entry.load = load;
  entry.available_memory_mb = memory;
  entry.effective_speed = speed;
  entry.num_cpus = 1;
  entry.max_allowed_load = 1.0;
  return entry;
}

TEST(LeastLoad, PrefersLowestLoad) {
  LeastLoadPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.9), Entry(0.1), Entry(0.5)};
  SelectionContext ctx;
  auto sel = policy.Select(cache, ctx);
  ASSERT_TRUE(sel.found());
  EXPECT_EQ(sel.index, 1u);
  EXPECT_EQ(sel.examined, 3u);  // linear search touches everything
}

TEST(LeastLoad, SpeedBreaksTies) {
  LeastLoadPolicy policy;
  EXPECT_TRUE(policy.Better(Entry(0.2, 256, 2.0), Entry(0.2, 256, 1.0)));
  EXPECT_FALSE(policy.Better(Entry(0.3, 256, 9.0), Entry(0.2, 256, 1.0)));
}

TEST(MostMemory, PrefersLargestMemory) {
  MostMemoryPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.1, 128), Entry(0.9, 1024),
                                Entry(0.5, 512)};
  auto sel = policy.Select(cache, SelectionContext{});
  ASSERT_TRUE(sel.found());
  EXPECT_EQ(sel.index, 1u);
}

TEST(Fastest, DiscountsBySaturation) {
  FastestPolicy policy;
  // 3.0-speed machine at load 2 effectively 1.0; 1.5-speed idle is 1.5.
  CacheEntry busy_fast = Entry(2.0, 256, 3.0);
  busy_fast.max_allowed_load = 4.0;  // keep it eligible
  CacheEntry idle_slow = Entry(0.0, 256, 1.5);
  EXPECT_TRUE(policy.Better(idle_slow, busy_fast));
}

TEST(Eligibility, LoadCeilingExcludes) {
  LeastLoadPolicy policy;
  std::vector<CacheEntry> cache{Entry(1.0), Entry(2.0)};  // all at/over limit
  auto sel = policy.Select(cache, SelectionContext{});
  EXPECT_FALSE(sel.found());
  EXPECT_EQ(sel.examined, 2u);
}

TEST(Eligibility, MultiCpuRaisesCeiling) {
  LeastLoadPolicy policy;
  CacheEntry smp = Entry(1.5);
  smp.num_cpus = 4;  // ceiling = 1.0 + 4 - 1 = 4.0
  std::vector<CacheEntry> cache{smp};
  EXPECT_TRUE(policy.Select(cache, SelectionContext{}).found());
}

TEST(Eligibility, AllocatedExcluded) {
  LeastLoadPolicy policy;
  CacheEntry taken = Entry(0.0);
  taken.allocated = true;
  std::vector<CacheEntry> cache{taken};
  EXPECT_FALSE(policy.Select(cache, SelectionContext{}).found());
}

TEST(Filter, ExcludesByIndex) {
  LeastLoadPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.0), Entry(0.5)};
  std::function<bool(std::size_t, const CacheEntry&)> filter =
      [](std::size_t i, const CacheEntry&) { return i != 0; };
  SelectionContext ctx;
  ctx.filter = &filter;
  auto sel = policy.Select(cache, ctx);
  ASSERT_TRUE(sel.found());
  EXPECT_EQ(sel.index, 1u);
}

TEST(ReplicationBias, InstancesPreferDistinctStrides) {
  // 8 idle machines, 2 instances: instance 0 should pick an even index,
  // instance 1 an odd index (Fig. 8's "instance i prefers every i-th").
  LeastLoadPolicy policy;
  std::vector<CacheEntry> cache;
  for (int i = 0; i < 8; ++i) cache.push_back(Entry(0.1 * i));

  SelectionContext ctx0;
  ctx0.instance = 0;
  ctx0.instance_count = 2;
  SelectionContext ctx1;
  ctx1.instance = 1;
  ctx1.instance_count = 2;

  const auto sel0 = policy.Select(cache, ctx0);
  const auto sel1 = policy.Select(cache, ctx1);
  ASSERT_TRUE(sel0.found());
  ASSERT_TRUE(sel1.found());
  EXPECT_EQ(sel0.index % 2, 0u);
  EXPECT_EQ(sel1.index % 2, 1u);
  EXPECT_NE(sel0.index, sel1.index);
}

TEST(ReplicationBias, FallsBackToOtherStride) {
  LeastLoadPolicy policy;
  // Only index 1 (odd) is eligible; instance 0 must still find it.
  std::vector<CacheEntry> cache{Entry(5.0), Entry(0.1), Entry(5.0),
                                Entry(5.0)};
  SelectionContext ctx;
  ctx.instance = 0;
  ctx.instance_count = 2;
  auto sel = policy.Select(cache, ctx);
  ASSERT_TRUE(sel.found());
  EXPECT_EQ(sel.index, 1u);
  // Preferred stride (2 entries) + fallback examination.
  EXPECT_GT(sel.examined, 2u);
}

TEST(RoundRobin, CyclesThroughMachines) {
  RoundRobinPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.0), Entry(0.0), Entry(0.0)};
  SelectionContext ctx;
  std::vector<std::size_t> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(policy.Select(cache, ctx).index);
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(RoundRobin, SkipsIneligible) {
  RoundRobinPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.0), Entry(9.0), Entry(0.0)};
  SelectionContext ctx;
  EXPECT_EQ(policy.Select(cache, ctx).index, 0u);
  EXPECT_EQ(policy.Select(cache, ctx).index, 2u);
  EXPECT_EQ(policy.Select(cache, ctx).index, 0u);
}

TEST(Random, FindsEligibleEntry) {
  RandomPolicy policy;
  std::vector<CacheEntry> cache{Entry(9.0), Entry(9.0), Entry(0.0),
                                Entry(9.0)};
  Rng rng(3);
  SelectionContext ctx;
  ctx.rng = &rng;
  for (int i = 0; i < 20; ++i) {
    auto sel = policy.Select(cache, ctx);
    ASSERT_TRUE(sel.found());
    EXPECT_EQ(sel.index, 2u);
  }
}

TEST(Random, RequiresRng) {
  RandomPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.0)};
  EXPECT_FALSE(policy.Select(cache, SelectionContext{}).found());
}

TEST(EmptyCache, NothingFound) {
  LeastLoadPolicy policy;
  std::vector<CacheEntry> cache;
  auto sel = policy.Select(cache, SelectionContext{});
  EXPECT_FALSE(sel.found());
  EXPECT_EQ(sel.examined, 0u);
}

TEST(Factory, CreatesAllPolicies) {
  for (const char* name :
       {"least-load", "most-memory", "fastest", "round-robin", "random",
        "linear-least-load", "linear-most-memory", "linear-fastest"}) {
    auto policy = MakePolicy(name);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ((*policy)->name(), name);
    const bool unordered = std::string(name) == "round-robin" ||
                           std::string(name) == "random";
    EXPECT_EQ((*policy)->ordered(), !unordered) << name;
  }
  EXPECT_TRUE(MakePolicy("").ok());  // default
  EXPECT_FALSE(MakePolicy("quantum").ok());
  EXPECT_FALSE(MakePolicy("linear-random").ok());  // no legacy variant
}

TEST(Factory, BareNamesAreIndexedLinearNamesAreNot) {
  EXPECT_TRUE((*MakePolicy("least-load"))->indexed());
  EXPECT_TRUE((*MakePolicy("fastest"))->indexed());
  EXPECT_FALSE((*MakePolicy("linear-least-load"))->indexed());
  EXPECT_FALSE((*MakePolicy("round-robin"))->indexed());
  EXPECT_FALSE((*MakePolicy("random"))->indexed());
}

// Property sweep: every policy must return an eligible entry whenever one
// exists, and must examine at most 2n entries.
class PolicyProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicyProperty, AlwaysFindsEligibleWhenPresent) {
  auto policy = MakePolicy(GetParam());
  ASSERT_TRUE(policy.ok());
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(40);
    std::vector<CacheEntry> cache;
    bool any_eligible = false;
    for (std::size_t i = 0; i < n; ++i) {
      const bool eligible = rng.Bernoulli(0.4);
      cache.push_back(Entry(eligible ? rng.Uniform(0, 0.9) : 9.0));
      any_eligible |= eligible;
    }
    SelectionContext ctx;
    ctx.rng = &rng;
    ctx.instance = static_cast<std::uint32_t>(rng.NextBounded(3));
    ctx.instance_count = 3;
    auto sel = (*policy)->Select(cache, ctx);
    EXPECT_EQ(sel.found(), any_eligible);
    if (sel.found()) {
      EXPECT_LT(cache[sel.index].load, 1.0);
    }
    EXPECT_LE(sel.examined, 2 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyProperty,
                         ::testing::Values("least-load", "most-memory",
                                           "fastest", "round-robin",
                                           "random"));

// --- the scheduling index ---

CacheEntry RandomEntry(Rng& rng) {
  CacheEntry entry;
  entry.load = rng.Bernoulli(0.4) ? rng.Uniform(0, 0.95) : rng.Uniform(1, 9);
  entry.available_memory_mb = 64 * (1 + rng.NextBounded(32));
  entry.effective_speed = 0.5 + 0.25 * static_cast<double>(rng.NextBounded(8));
  entry.num_cpus = 1 + static_cast<int>(rng.NextBounded(3));
  entry.max_allowed_load = 1.0;
  return entry;
}

// The index must choose exactly the entry the legacy linear scan does,
// on any cache, any instance bias, and with any filter; for the
// "linear-" names it must also report the scan's examined count, the
// pool's simulated selection cost. Trial kinds: a random cache, a cache
// with every entry ineligible, fewer entries than the stride (empty
// classes), and a cache permuted into the re-sort's order and rebuilt.
TEST(SchedulingIndex, MatchesLinearScanOnRandomCaches) {
  Rng rng(4242);
  const std::function<bool(std::size_t, const CacheEntry&)> filter =
      [](std::size_t i, const CacheEntry&) { return i % 5 != 3; };
  for (const char* name :
       {"least-load", "most-memory", "fastest", "linear-least-load",
        "linear-most-memory", "linear-fastest"}) {
    auto made = MakePolicy(name);
    ASSERT_TRUE(made.ok());
    const SchedulingPolicy& policy = **made;
    for (int trial = 0; trial < 80; ++trial) {
      const int kind = trial % 4;
      const std::uint32_t stride =
          kind == 2 ? 2 + rng.NextBounded(3) : 1 + rng.NextBounded(4);
      const std::size_t n =
          kind == 2 ? 1 + rng.NextBounded(stride - 1) : 1 + rng.NextBounded(60);
      std::vector<CacheEntry> cache;
      for (std::size_t i = 0; i < n; ++i) {
        cache.push_back(RandomEntry(rng));
        if (kind == 1) cache.back().load += 9.0;  // over every ceiling
      }

      SchedulingIndex index(&policy, 0, stride);
      index.Rebuild(cache);
      if (kind == 3) {
        std::stable_sort(cache.begin(), cache.end(),
                         [&policy](const CacheEntry& a, const CacheEntry& b) {
                           return policy.Better(a, b);
                         });
        index.Rebuild(cache);
      }

      for (std::uint32_t instance = 0; instance < stride; ++instance) {
        SelectionContext ctx;
        ctx.instance = instance;
        ctx.instance_count = stride;
        if ((trial / 4) % 2 == 0) ctx.filter = &filter;
        const Selection linear = policy.Select(cache, ctx);
        const Selection indexed = index.Select(cache, ctx);
        EXPECT_EQ(indexed.index, linear.index)
            << name << " trial=" << trial << " instance=" << instance;
        EXPECT_EQ(indexed.found(), linear.found());
        if (policy.indexed()) {
          EXPECT_LE(indexed.examined, linear.examined);
        } else {
          EXPECT_EQ(indexed.examined, linear.examined)
              << name << " trial=" << trial << " instance=" << instance;
        }
        if (kind == 1) {
          EXPECT_FALSE(indexed.found());
        }
      }
    }
  }
}

// Least-load ordering that counts its Better calls: the index's host
// cost on saturated pools.
class CountingPolicy final : public SchedulingPolicy {
 public:
  CountingPolicy() : SchedulingPolicy(/*indexed=*/true) {}
  [[nodiscard]] std::string name() const override { return "counting"; }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override {
    ++calls;
    return order_.Better(a, b);
  }
  mutable std::size_t calls = 0;

 private:
  LeastLoadPolicy order_;
};

// A select that finds nothing (or only the last entry in objective
// order) must not cost O(n^2) comparisons: the frontier is a heap and an
// all-ineligible pool is answered from the per-class counts.
TEST(SchedulingIndex, SaturatedSelectStaysNearLinear) {
  constexpr std::size_t kN = 1600;
  CountingPolicy policy;
  std::vector<CacheEntry> cache;
  for (std::size_t i = 0; i < kN; ++i) {
    cache.push_back(Entry(0.0005 * static_cast<double>(i)));
  }
  SchedulingIndex index(&policy, 0, 1);
  SelectionContext ctx;

  // No eligible entry: no traversal at all.
  for (auto& entry : cache) entry.allocated = true;
  index.Rebuild(cache);
  policy.calls = 0;
  Selection sel = index.Select(cache, ctx);
  EXPECT_FALSE(sel.found());
  EXPECT_EQ(sel.examined, kN);
  EXPECT_EQ(policy.calls, 0u);

  // Only the worst-ranked (most loaded) entry eligible.
  cache.back().allocated = false;
  index.Update(cache, kN - 1);
  policy.calls = 0;
  sel = index.Select(cache, ctx);
  EXPECT_EQ(sel.index, kN - 1);
  EXPECT_EQ(sel.examined, kN);
  EXPECT_LE(policy.calls, 64 * kN);

  // Every entry eligible, but a filter rejects them all.
  for (auto& entry : cache) entry.allocated = false;
  index.Rebuild(cache);
  const std::function<bool(std::size_t, const CacheEntry&)> reject_all =
      [](std::size_t, const CacheEntry&) { return false; };
  ctx.filter = &reject_all;
  policy.calls = 0;
  sel = index.Select(cache, ctx);
  EXPECT_FALSE(sel.found());
  EXPECT_EQ(sel.examined, kN);
  EXPECT_LE(policy.calls, 64 * kN);
}

// Equivalence on a mutating trace: allocate/release load changes with
// incremental Update() must keep the index's answers identical to the
// linear scan — the "same allocations on the same trace" property.
TEST(SchedulingIndex, TraceOfUpdatesStaysEquivalent) {
  Rng rng(99);
  auto policy = MakePolicy("least-load");
  ASSERT_TRUE(policy.ok());
  std::vector<CacheEntry> cache;
  for (int i = 0; i < 40; ++i) cache.push_back(RandomEntry(rng));
  SchedulingIndex index(policy->get(), 1, 2);
  index.Rebuild(cache);

  std::vector<std::size_t> held;
  SelectionContext ctx;
  ctx.instance = 1;
  ctx.instance_count = 2;
  for (int step = 0; step < 500; ++step) {
    const Selection linear = (*policy)->Select(cache, ctx);
    const Selection indexed = index.Select(cache, ctx);
    ASSERT_EQ(indexed.index, linear.index) << "step " << step;
    if (linear.found() && rng.Bernoulli(0.7)) {
      cache[linear.index].load += 1.0;  // allocate
      index.Update(cache, linear.index);
      held.push_back(linear.index);
    } else if (!held.empty()) {
      const std::size_t h = rng.NextBounded(held.size());
      cache[held[h]].load -= 1.0;  // release
      index.Update(cache, held[h]);
      held[h] = held.back();
      held.pop_back();
    }
  }
}

// The asymptotic win the refactor is for: a mostly-idle pool answers in
// O(1) examined entries instead of O(n).
TEST(SchedulingIndex, ExaminedStaysConstantOnIdlePool) {
  auto policy = MakePolicy("least-load");
  ASSERT_TRUE(policy.ok());
  std::vector<CacheEntry> cache;
  for (int i = 0; i < 3200; ++i) {
    CacheEntry entry;
    entry.load = 0.1;
    entry.effective_speed = 1.0;
    cache.push_back(entry);
  }
  SchedulingIndex index(policy->get(), 0, 1);
  index.Rebuild(cache);
  SelectionContext ctx;
  const Selection linear = (*policy)->Select(cache, ctx);
  const Selection indexed = index.Select(cache, ctx);
  EXPECT_EQ(indexed.index, linear.index);
  EXPECT_EQ(linear.examined, 3200u);
  EXPECT_LE(indexed.examined, 4u);
}

TEST(SchedulingIndex, FallsBackToSiblingStrides) {
  // Only an off-stride entry is eligible; the index must fall back the
  // way the linear scan's second phase does.
  auto policy = MakePolicy("least-load");
  std::vector<CacheEntry> cache;
  for (int i = 0; i < 6; ++i) {
    CacheEntry entry;
    entry.load = (i == 3) ? 0.2 : 5.0;  // index 3 is odd-stride
    cache.push_back(entry);
  }
  SchedulingIndex index(policy->get(), 0, 2);
  index.Rebuild(cache);
  SelectionContext ctx;
  ctx.instance = 0;
  ctx.instance_count = 2;
  const Selection sel = index.Select(cache, ctx);
  ASSERT_TRUE(sel.found());
  EXPECT_EQ(sel.index, 3u);
}

}  // namespace
}  // namespace actyp::sched
