// ResourcePool (§5.2.3): a dynamically-created active object holding
//   1) machines aggregated according to the criteria encoded in its
//      name (claimed from the white pages at initialization), and
//   2) a scheduling process that orders those machines by a configured
//      objective and answers queries with a linear search.
//
// Selection: every ordered policy picks through a SchedulingIndex
// instead of scanning the cache. The paper's linear search survives
// in simulated time: "linear-*" pools are charged pool_per_machine for
// every entry the scan would examine and still re-sort the cache every
// resort_period; the bare policy names are charged per index node.
//
// Host cost of the periodic tick: the white pages' change feed names
// the machines dirtied since the last tick, a dense id -> entry table
// routes each to its cache entry, and only those records are re-read.
// A linear pool's re-sort sorts precomputed policy keys, returns early
// when the cache is already in order, and permutes the cache and a
// 4-byte metadata row number per entry through scratch arrays that
// keep their capacity, so a warm tick allocates nothing.
//
// Lifecycle: OnStart walks the white pages, claims matching machines
// (marking them "taken"), loads a local cache, registers itself with the
// local directory service, and arms a periodic re-sort timer. Each query
// is granted exactly one machine: the pool generates a session key and
// grabs a shadow-account uid, and one session table maps the key to the
// machine's cache entry and the uid. A release returns the job's
// capacity and the uid.
//
// Replication: instances of the same pool share one machine set (the
// first instance claims; later ones adopt the claim) and apply the
// instance-specific selection bias of Fig. 8.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "db/database.hpp"
#include "db/policy.hpp"
#include "db/shadow.hpp"
#include "directory/directory.hpp"
#include "net/node.hpp"
#include "pipeline/cost_model.hpp"
#include "pipeline/protocol.hpp"
#include "profile/stage_profiler.hpp"
#include "query/query.hpp"
#include "sched/index.hpp"
#include "sched/policy.hpp"

namespace actyp::obs {
class FlightRecorder;
}  // namespace actyp::obs

namespace actyp::pipeline {

struct ResourcePoolConfig {
  std::string pool_name;       // signature '/' identifier (§5.2.2)
  std::uint32_t instance = 0;  // self-generated instance number
  std::uint32_t instance_count = 1;  // for the replication bias
  // Name under which machines are marked taken in the white pages.
  // Replicas share it (they adopt each other's claim); segments of a
  // split pool use distinct claim names (SegmentClaimName) so they
  // partition the machines. Empty = pool_name; read it through claim().
  std::string claim_name;
  // Registered as a segment of a split pool (Fig. 7).
  bool segment = false;
  query::Query criteria;       // aggregation criteria (rsrc terms only)
  std::string policy = "least-load";
  SimDuration resort_period = Seconds(2.0);
  std::size_t claim_limit = 0;  // cap on machines claimed; 0 = all
  // Refresh sweeps fetch only the records the white pages marked dirty
  // since the last tick (cost proportional to churn). False restores
  // the legacy full sweep over every cached record — kept for the
  // incremental-vs-full equivalence test and as an escape hatch.
  bool incremental_refresh = true;
  // When a query finds every machine at its load ceiling, hand out the
  // least-loaded one anyway (PUNCH machines are time-shared); when
  // false, reply with a failure instead.
  bool allow_oversubscribe = true;
  CostModel costs;
  // Stage-span sink (not owned; must outlive the node, including any
  // fault-restart copies of this config). Null disables profiling.
  profile::StageProfiler* profiler = nullptr;
  // Flight-event sink for claim/release events (same ownership rules as
  // the profiler). Null — the default — records nothing.
  obs::FlightRecorder* recorder = nullptr;

  // The name this instance claims under.
  [[nodiscard]] const std::string& claim() const {
    return claim_name.empty() ? pool_name : claim_name;
  }
};

// The claim name of segment `segment` of split pool `pool_name`:
// "<pool>#<segment>". Every other instance claims under the pool name.
[[nodiscard]] std::string SegmentClaimName(const std::string& pool_name,
                                           std::uint32_t segment);

struct PoolStats {
  std::uint64_t queries = 0;
  std::uint64_t allocations = 0;
  std::uint64_t failures = 0;
  std::uint64_t releases = 0;
  std::uint64_t oversubscribed = 0;
  std::uint64_t entries_examined = 0;
  // Refresh economics: how many cache entries each periodic tick had to
  // re-read from the white pages. With dirty-id refresh this tracks
  // monitor/job churn, not cache size.
  std::uint64_t entries_refreshed = 0;
  std::uint64_t refresh_ticks = 0;
};

class ResourcePool final : public net::Node {
 public:
  // `policies` and `shadows` may be nullptr (checks are skipped).
  ResourcePool(ResourcePoolConfig config, db::ResourceDatabase* database,
               directory::DirectoryApi* directory,
               db::ShadowAccountRegistry* shadows,
               db::PolicyRegistry* policies);
  ~ResourcePool() override;

  void OnStart(net::NodeContext& ctx) override;
  void OnMessage(const net::Envelope& envelope, net::NodeContext& ctx) override;

  [[nodiscard]] const PoolStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] const ResourcePoolConfig& config() const { return config_; }
  // Sessions still open against this instance (allocation granted, no
  // release seen) — the chaos leaked-session audit reads this at drain.
  [[nodiscard]] std::size_t active_sessions() const {
    return sessions_.size();
  }

 private:
  // Per-machine identity and access control, parallel to cache_ and
  // kept off the scheduling scan's hot entries. The machine and group
  // names are interned symbols (a pool and its replicas share one copy
  // of each), and the shadow-account pool is resolved once at
  // Initialize.
  struct EntryMeta {
    Symbol name;                     // field 11
    SymbolList user_groups;          // field 16; empty = open
    db::ShadowAccountPool* shadow_accounts = nullptr;  // field 18
    // Field 19 machines only (null otherwise): the record the usage
    // policy reads, params and swap included. Before each evaluation
    // its load, memory and active jobs are set from the cache entry.
    std::unique_ptr<db::MachineRecord> policy_view;
    std::uint16_t execution_port = 0;
  };

  // An open session: its machine (found through entry_of_, so a
  // re-sort never touches the table) and the shadow-account uid it
  // holds, if any.
  struct Session {
    db::MachineId machine = db::kInvalidMachine;
    std::optional<std::uint32_t> shadow_uid;
  };

  void Initialize(net::NodeContext& ctx);
  // Grants one machine (§5.2.3): selection under the query's access
  // group and the machines' usage policies, then the oversubscribe
  // fallback when allowed. Replies with an allocation or a failure.
  void HandleQuery(const net::Envelope& envelope, net::NodeContext& ctx);
  void HandleRelease(const net::Envelope& envelope, net::NodeContext& ctx);
  void HandleTick(net::NodeContext& ctx);
  // Re-reads white-pages state into the cache. Incremental mode fetches
  // only the records dirtied since the last tick and, for indexed
  // policies, re-positions just those in the scheduling index (linear
  // pools rebuild it after the re-sort); the fallback (legacy mode, or a
  // cursor older than the db's change journal) sweeps everything and
  // rebuilds the index. Returns the number of entries re-read (the
  // simulated refresh cost).
  std::size_t RefreshFromDatabase();
  // Applies one record to cache entry `index` (shared by both refresh
  // paths).
  void ApplyRecord(std::size_t index, const db::MachineRecord& rec);
  // Orders the cache by the policy's objective (the paper's periodic
  // sort), stable for ties.
  void Resort(net::NodeContext& ctx);
  // The metadata of cache entry `index`.
  EntryMeta& Meta(std::size_t index) { return meta_[meta_row_[index]]; }
  // Re-positions entry `index` in the scheduling index after its load
  // changed (no-op for round-robin and random).
  void TouchIndex(std::size_t index);
  [[nodiscard]] std::string MakeSessionKey(net::NodeContext& ctx);

  ResourcePoolConfig config_;
  db::ResourceDatabase* database_;
  directory::DirectoryApi* directory_;
  db::ShadowAccountRegistry* shadows_;
  db::PolicyRegistry* policies_;

  std::unique_ptr<sched::SchedulingPolicy> policy_;
  // Present iff the policy is ordered: maintained on allocate/release/
  // refresh/re-sort, consulted instead of the linear scan.
  std::unique_ptr<sched::SchedulingIndex> index_;
  std::vector<sched::CacheEntry> cache_;
  // Metadata rows in claim order; re-sorts move only meta_row_, the
  // row of each cache entry (read through Meta).
  std::vector<EntryMeta> meta_;
  std::vector<std::uint32_t> meta_row_;     // parallel to cache_
  // Machine id -> cache index (kNoEntry for machines this pool does not
  // hold), sized to the largest id held, which the white pages' dense
  // ids keep near the fleet size: routes dirty ids and releases to
  // entries without hashing.
  static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};
  std::vector<std::uint32_t> entry_of_;
  // White-pages change cursor for the incremental refresh sweep.
  std::uint64_t db_cursor_ = 0;
  // Scratch for the refresh, reused across ticks.
  std::vector<db::MachineId> dirty_ids_;
  std::vector<db::MachineId> fetch_ids_;
  std::vector<std::uint32_t> fetch_index_;
  bool any_user_groups_ = false;            // per-query filter fast path
  bool any_usage_policy_ = false;
  std::unordered_map<std::string, Session> sessions_;  // by session key
  // Scratch for Resort, reused across ticks.
  std::vector<sched::RankedEntry> sort_order_;
  std::vector<sched::CacheEntry> sort_cache_;
  std::vector<std::uint32_t> sort_rows_;
  PoolStats stats_;
  bool initialized_ = false;
};

}  // namespace actyp::pipeline
