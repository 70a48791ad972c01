// Scheduling objectives for resource pools (§5.2.3): each pool object
// has scheduling processes that (a) periodically sort the machines in
// its cache by a configured criterion and (b) select a machine for each
// incoming query with a *linear* search — the paper calls out that the
// linear response-time plots of Fig. 6 "are simply a function of the
// linear search algorithms employed for scheduling", so selection cost
// is proportional to the number of entries examined.
//
// Pools select through an incrementally-updated SchedulingIndex
// (sched/index.hpp) for every ordered policy instead of scanning the
// cache on the host. The policy name picks the simulated cost model: the
// "linear-*" names (linear-least-load, linear-most-memory,
// linear-fastest) are charged for the entries the paper's O(n) scan
// examines plus the periodic re-sort, so Fig. 6's curves stay
// reproducible; the bare names (least-load, most-memory, fastest) are
// charged for the index nodes visited, near-constant instead of O(n).
// SchedulingPolicy::Select is that linear scan, kept as the reference
// the index is tested against.
//
// Replicated pool instances maintain scheduling integrity via an
// instance-specific bias: instance i of n prefers every i-th machine
// (Fig. 8), so replicas racing over the same machine set rarely collide.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/status.hpp"
#include "db/machine.hpp"

namespace actyp::sched {

// A pool's cached view of one machine (loaded from the white pages at
// pool initialization, refreshed from monitor data). Deliberately kept
// to the plain scheduling attributes — the selection scan walks these
// back to back, and identity strings live in the pool's parallel
// metadata table instead of widening every entry.
struct CacheEntry {
  db::MachineId id = db::kInvalidMachine;
  double load = 0.0;
  double available_memory_mb = 0.0;
  double effective_speed = 1.0;
  int num_cpus = 1;
  double max_allowed_load = 1.0;
  int active_jobs = 0;
  bool allocated = false;  // currently handed to a client
  SimTime updated = 0;
};

struct SelectionContext {
  // Replication bias: this instance prefers entries whose index ≡
  // instance (mod instance_count). instance_count == 1 disables bias.
  std::uint32_t instance = 0;
  std::uint32_t instance_count = 1;
  Rng* rng = nullptr;  // for RandomPolicy
  // Optional per-query eligibility filter (user-group / usage-policy
  // checks); receives the entry index and entry. nullptr = all pass.
  const std::function<bool(std::size_t, const CacheEntry&)>* filter = nullptr;
};

// A policy's objective as a pair compared lexicographically; each
// policy's Better(a, b) is exactly Key(a) < Key(b).
struct SortKey {
  double primary = 0.0;
  double secondary = 0.0;
  friend bool operator<(const SortKey& a, const SortKey& b) {
    if (a.primary != b.primary) return a.primary < b.primary;
    return a.secondary < b.secondary;
  }
};

struct Selection {
  std::size_t index = SIZE_MAX;
  std::size_t examined = 0;  // entries visited; drives service-time cost
  [[nodiscard]] bool found() const { return index != SIZE_MAX; }
};

class SchedulingPolicy {
 public:
  explicit SchedulingPolicy(bool indexed = false) : indexed_(indexed) {}
  virtual ~SchedulingPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // The simulated cost model: true charges a selection for the index
  // nodes visited (the bare names); false charges the entries the linear
  // scan examines and re-sorts the cache every period (the "linear-"
  // names; round-robin and random charge their own Select's probes).
  [[nodiscard]] bool indexed() const { return indexed_; }

  // True when Better is a total objective order, so the pool selects
  // through a SchedulingIndex; round-robin and random keep their own
  // Select.
  [[nodiscard]] virtual bool ordered() const { return true; }

  // True when `a` should be preferred over `b` (the index ordering and
  // the linear scan's choice): Key(a) < Key(b).
  [[nodiscard]] virtual bool Better(const CacheEntry& a,
                                    const CacheEntry& b) const = 0;
  // The entry's objective key, which the periodic re-sort sorts by
  // (ObjectiveOrder). Unordered policies give every entry one key.
  [[nodiscard]] virtual SortKey Key(const CacheEntry& entry) const = 0;

  // Linear scan for the best *free* usable machine, honouring the
  // replication bias: the instance's preferred stride is scanned first,
  // then the remainder. Returns the chosen index and entries examined.
  // The ordered policies' reference: SchedulingIndex::Select must agree.
  [[nodiscard]] virtual Selection Select(const std::vector<CacheEntry>& cache,
                                         const SelectionContext& ctx) const;

  // Eligibility shared by all policies and by the index.
  [[nodiscard]] static bool Eligible(const CacheEntry& entry) {
    return !entry.allocated &&
           entry.load < entry.max_allowed_load +
                            static_cast<double>(entry.num_cpus) - 1.0;
  }

 private:
  bool indexed_ = false;
};

// Lowest current load wins (default PUNCH objective).
class LeastLoadPolicy final : public SchedulingPolicy {
 public:
  explicit LeastLoadPolicy(bool indexed = true) : SchedulingPolicy(indexed) {}
  [[nodiscard]] std::string name() const override {
    return indexed() ? "least-load" : "linear-least-load";
  }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override {
    return Key(a) < Key(b);
  }
  [[nodiscard]] SortKey Key(const CacheEntry& e) const override {
    return {e.load, -e.effective_speed};
  }
};

// Largest available memory wins.
class MostMemoryPolicy final : public SchedulingPolicy {
 public:
  explicit MostMemoryPolicy(bool indexed = true) : SchedulingPolicy(indexed) {}
  [[nodiscard]] std::string name() const override {
    return indexed() ? "most-memory" : "linear-most-memory";
  }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override {
    return Key(a) < Key(b);
  }
  [[nodiscard]] SortKey Key(const CacheEntry& e) const override {
    return {-e.available_memory_mb, e.load};
  }
};

// Highest effective speed wins; ties broken by load.
class FastestPolicy final : public SchedulingPolicy {
 public:
  explicit FastestPolicy(bool indexed = true) : SchedulingPolicy(indexed) {}
  [[nodiscard]] std::string name() const override {
    return indexed() ? "fastest" : "linear-fastest";
  }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override {
    return Key(a) < Key(b);
  }
  [[nodiscard]] SortKey Key(const CacheEntry& e) const override {
    // Speed discounted by current load per cpu: what matters is the
    // speed the new job will actually see.
    return {-(e.effective_speed /
              (1.0 + e.load / static_cast<double>(e.num_cpus))),
            e.load};
  }
};

// First free machine after a moving cursor (cheap, fair).
class RoundRobinPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "round-robin"; }
  [[nodiscard]] bool ordered() const override { return false; }
  [[nodiscard]] bool Better(const CacheEntry&,
                            const CacheEntry&) const override {
    return false;
  }
  [[nodiscard]] SortKey Key(const CacheEntry&) const override { return {}; }
  [[nodiscard]] Selection Select(const std::vector<CacheEntry>& cache,
                                 const SelectionContext& ctx) const override;

 private:
  mutable std::size_t cursor_ = 0;
};

// Uniformly random free machine (baseline for ablations).
class RandomPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "random"; }
  [[nodiscard]] bool ordered() const override { return false; }
  [[nodiscard]] bool Better(const CacheEntry&,
                            const CacheEntry&) const override {
    return false;
  }
  [[nodiscard]] SortKey Key(const CacheEntry&) const override { return {}; }
  [[nodiscard]] Selection Select(const std::vector<CacheEntry>& cache,
                                 const SelectionContext& ctx) const override;
};

// One entry of a re-sort: its objective key and its cache index.
struct RankedEntry {
  SortKey key;
  std::uint32_t index = 0;
  friend bool operator<(const RankedEntry& a, const RankedEntry& b) {
    if (a.key.primary != b.key.primary) return a.key.primary < b.key.primary;
    if (a.key.secondary != b.key.secondary) {
      return a.key.secondary < b.key.secondary;
    }
    return a.index < b.index;
  }
};

// The periodic re-sort's permutation: fills `order` (reused, so no
// allocation once warm) with the cache's entries ranked by the policy's
// objective, ties in cache order — exactly what std::stable_sort by
// Better yields. (key, index) is a total order, so a plain sort is
// exact. Returns false, with `order` in cache order, when the cache is
// already in objective order and nothing would move.
bool ObjectiveOrder(const SchedulingPolicy& policy,
                    const std::vector<CacheEntry>& cache,
                    std::vector<RankedEntry>* order);

// Factory by name. Charged per index node visited: "least-load",
// "most-memory", "fastest". Charged as the paper's linear scan:
// "linear-least-load", "linear-most-memory", "linear-fastest".
// Unordered: "round-robin", "random".
Result<std::unique_ptr<SchedulingPolicy>> MakePolicy(const std::string& name);

}  // namespace actyp::sched
