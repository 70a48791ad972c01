// ResourceDatabase: the "white pages" listing every machine in a domain
// (§4.1). Resource pools walk it at initialization, marking matched
// machines as taken; the monitor updates dynamic fields in place.
//
// Thread-safe: the threaded runtime has the monitor, pool managers, and
// pools touching it concurrently. The discrete-event runtime serializes
// access but uses the same interface.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "db/machine.hpp"
#include "query/query.hpp"

namespace actyp::db {

class ResourceDatabase {
 public:
  ResourceDatabase() = default;

  // Inserts a record; assigns an id if the record has none. Fails on
  // duplicate name.
  Result<MachineId> Add(MachineRecord record);

  // Copy-out accessors (callers never hold references into the table).
  [[nodiscard]] Result<MachineRecord> Get(MachineId id) const;
  [[nodiscard]] Result<MachineRecord> GetByName(const std::string& name) const;

  // Applies `mutate` to the record under the lock. Returns NotFound for
  // unknown ids.
  Status Update(MachineId id,
                const std::function<void(MachineRecord&)>& mutate);

  // Monitor fast path: overwrite dynamic state (fields 2-7).
  Status UpdateDynamic(MachineId id, const DynamicState& dyn);

  // Monitor batch path: one lock, one journal entry per id. Unknown ids
  // are skipped.
  void ApplyDynamic(
      const std::vector<std::pair<MachineId, DynamicState>>& batch);

  // --- taken marking (§5.2.3) ---
  // Atomically claims every *free, usable* machine matching the query,
  // up to `limit` (0 = unlimited), marking each taken by `pool_name`.
  // Returns the claimed ids.
  std::vector<MachineId> ClaimMatching(const query::Query& query,
                                       const std::string& pool_name,
                                       std::size_t limit = 0);
  // Releases every machine taken by `pool_name`; returns how many.
  std::size_t ReleaseAllFrom(const std::string& pool_name);
  Status Release(MachineId id, const std::string& pool_name);

  // Ids currently taken by `pool_name` (replicated pool instances load
  // the machine set their sibling already claimed).
  [[nodiscard]] std::vector<MachineId> ListTakenBy(
      const std::string& pool_name) const;

  // Walks a copy of all records, in ascending id order, with the lock
  // released, so `fn` may call back into the database. Its callers are
  // benchmark/replay.cpp, which times the crash strike's former copying
  // walk until the benchmark is re-pointed, and db_test's reference
  // walk. Every other walk uses VisitAll.
  void ForEach(const std::function<void(const MachineRecord&)>& fn) const;

  // Walks all records under one lock without copying, in the same
  // ascending id order as ForEach — the monitor's sweep, the fault
  // hooks and every other read-only walk. `fn` must not call back into
  // the database (the lock is held) and must not retain the reference.
  void VisitAll(const std::function<void(const MachineRecord&)>& fn) const;

  // --- change tracking (dirty-id refresh) ---
  // Every mutation bumps a global version, stamps it on the record, and
  // appends the id to a bounded change journal. Consumers poll
  // ChangesSince with their cursor to learn which records changed,
  // making refresh cost proportional to churn instead of fleet size.

  // Version of the most recent mutation (0 = pristine database).
  [[nodiscard]] std::uint64_t version() const;

  // Appends the ids of records mutated after `since` to `out`
  // (ascending, deduplicated) and returns the new cursor. Returns
  // nullopt when `since` predates the retained journal window — the
  // caller must fall back to a full sweep and re-cursor at version().
  [[nodiscard]] std::optional<std::uint64_t> ChangesSince(
      std::uint64_t since, std::vector<MachineId>* out) const;

  // Batched read for the pools' periodic refresh sweep: one lock, no
  // record copies. Calls fn(position, record) for each id, with a null
  // record for unknown ids; the reference is only valid inside fn.
  void VisitRecords(
      const std::vector<MachineId>& ids,
      const std::function<void(std::size_t, const MachineRecord*)>& fn) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t free_count() const;

  // Snapshot serialization: one record per line. LoadFrom adds the
  // records in `text` to this database (it is not cleared first).
  [[nodiscard]] std::string Serialize() const;
  Status LoadFrom(std::string_view text);

 private:
  // Stamps the next version on `rec` and journals the change. Caller
  // holds mu_.
  void MarkDirtyLocked(MachineRecord& rec);

  MachineId next_id_ = 1;
  mutable std::mutex mu_;
  std::map<MachineId, MachineRecord> records_;
  std::map<std::string, MachineId> by_name_;

  // Change journal: (version, id) pairs in strictly increasing version
  // order. Bounded: when it outgrows kJournalCapacity the oldest half
  // is dropped and journal_floor_ records the last discarded version,
  // so stale cursors are detected instead of silently missing changes.
  static constexpr std::size_t kJournalCapacity = 1 << 16;
  std::uint64_t version_ = 0;
  std::uint64_t journal_floor_ = 0;
  std::vector<std::pair<std::uint64_t, MachineId>> journal_;
};

}  // namespace actyp::db
