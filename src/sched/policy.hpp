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

  // True when `a` should be preferred over `b` (used by the periodic
  // re-sort process and as the index ordering).
  [[nodiscard]] virtual bool Better(const CacheEntry& a,
                                    const CacheEntry& b) const = 0;

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
                            const CacheEntry& b) const override;
};

// Largest available memory wins.
class MostMemoryPolicy final : public SchedulingPolicy {
 public:
  explicit MostMemoryPolicy(bool indexed = true) : SchedulingPolicy(indexed) {}
  [[nodiscard]] std::string name() const override {
    return indexed() ? "most-memory" : "linear-most-memory";
  }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override;
};

// Highest effective speed wins; ties broken by load.
class FastestPolicy final : public SchedulingPolicy {
 public:
  explicit FastestPolicy(bool indexed = true) : SchedulingPolicy(indexed) {}
  [[nodiscard]] std::string name() const override {
    return indexed() ? "fastest" : "linear-fastest";
  }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override;
};

// First free machine after a moving cursor (cheap, fair).
class RoundRobinPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "round-robin"; }
  [[nodiscard]] bool ordered() const override { return false; }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override;
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
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override;
  [[nodiscard]] Selection Select(const std::vector<CacheEntry>& cache,
                                 const SelectionContext& ctx) const override;
};

// Factory by name. Charged per index node visited: "least-load",
// "most-memory", "fastest". Charged as the paper's linear scan:
// "linear-least-load", "linear-most-memory", "linear-fastest".
// Unordered: "round-robin", "random".
Result<std::unique_ptr<SchedulingPolicy>> MakePolicy(const std::string& name);

}  // namespace actyp::sched
