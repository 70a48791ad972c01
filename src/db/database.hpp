// ResourceDatabase: the "white pages" listing every machine in a domain
// (§4.1). Resource pools walk it at initialization, marking matched
// machines as taken; the monitor rewrites dynamic fields in place.
//
// Storage: one contiguous array of records in ascending id order, with
// a parallel array of 16-byte slots (id, up flag, by-name entry). The
// ids Add assigns are dense, so record i has id i + 1 and a lookup is
// one index; explicit sparse ids (snapshots, tests) fall back to a
// binary search over the slots, and an explicit id below the largest
// inserts in the middle. Walks stream through memory in id order, and
// the crash strike's up-list reads only the slots. The arrays grow
// like std::vector; bulk loaders (workload::BuildFleet, LoadFrom) call
// Reserve first so the store carries no capacity slack.
//
// Thread-safe: every method holds the database's lock. Simulations
// already serialize access (each white pages belongs to one serial
// kernel or to one LP shard), so the lock matters only to a caller
// that shares a database across threads.
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

  // Sizes the store for `n` records in all, so a bulk load grows it
  // once and leaves no slack. A no-op when it already holds that many.
  void Reserve(std::size_t n);

  // Copy-out accessors (callers never hold references into the table).
  [[nodiscard]] Result<MachineRecord> Get(MachineId id) const;
  [[nodiscard]] Result<MachineRecord> GetByName(const std::string& name) const;

  // Applies `mutate` to the record under the lock. Returns NotFound for
  // unknown ids. A rename (a name that no longer matches the record's
  // by-name entry after `mutate`) moves the entry; any other update
  // leaves the name index untouched and copies nothing. A record renamed
  // to a name another machine holds is found by id only while that
  // machine holds the name.
  Status Update(MachineId id,
                const std::function<void(MachineRecord&)>& mutate);

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
  // ascending id order as ForEach — the fault hooks and every other
  // read-only walk. `fn` must not call back into the database (the
  // lock is held) and must not retain the reference.
  void VisitAll(const std::function<void(const MachineRecord&)>& fn) const;

  // The monitor's sweep: walks all records under one lock in ascending
  // id order and calls fn(const MachineRecord&, DynamicState&) on each,
  // which may rewrite the record's dynamic state (fields 2-7) in place
  // and returns true when it did; that stamps a version and journals
  // the id, in walk order. Same calling rules as VisitAll. A template,
  // so the walk makes no indirect call per record.
  template <typename Fn>
  void SweepDynamic(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    for (MachineRecord& rec : records_) {
      if (fn(std::as_const(rec), rec.dyn)) MarkDirtyLocked(rec);
    }
  }

  // Replaces `out`'s contents with the ids of every up machine, in
  // ascending order: the crash strike's candidates, read from the
  // slots' up flags without touching a record.
  void ListUp(std::vector<MachineId>* out) const;

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
  // Dedupes through a bitmap over the store's slots, so the cost is the
  // journal slice plus one bit per slot in the slice's id range.
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
  // records in `text` to this database (it is not cleared first),
  // reserving room for one record per line. A caller that feeds a
  // snapshot in chunks should Reserve the whole snapshot first, or each
  // chunk regrows the store.
  [[nodiscard]] std::string Serialize() const;
  Status LoadFrom(std::string_view text);

 private:
  using NameIndex = std::map<std::string, MachineId>;

  // Per-record bookkeeping, parallel to records_: the id (searched
  // without touching a record), the up flag (state == kUp) that Add and
  // Update keep, and the record's entry in by_name_ (compared, not
  // copied, to detect a rename; end() when another machine holds the
  // record's name).
  struct Slot {
    MachineId id = kInvalidMachine;
    bool up = false;
    NameIndex::iterator name;
  };
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  // Position of the first slot whose id is not below `id`, and the
  // position of `id` itself or kNoSlot. Caller holds mu_.
  [[nodiscard]] std::size_t LowerSlot(MachineId id) const;
  [[nodiscard]] std::size_t SlotOf(MachineId id) const;
  // Stamps the next version on `rec` and journals the change. Caller
  // holds mu_.
  void MarkDirtyLocked(MachineRecord& rec);

  MachineId next_id_ = 1;
  mutable std::mutex mu_;
  std::vector<MachineRecord> records_;  // ascending id
  std::vector<Slot> slots_;             // parallel to records_
  NameIndex by_name_;

  // Change journal: (version, id) pairs in strictly increasing version
  // order. Bounded: when it outgrows kJournalCapacity the oldest half
  // is dropped and journal_floor_ records the last discarded version,
  // so stale cursors are detected instead of silently missing changes.
  static constexpr std::size_t kJournalCapacity = 1 << 16;
  std::uint64_t version_ = 0;
  std::uint64_t journal_floor_ = 0;
  std::vector<std::pair<std::uint64_t, MachineId>> journal_;
  // ChangesSince's dedupe bitmap, one bit per slot; all zero between
  // calls.
  mutable std::vector<std::uint64_t> changed_;
};

}  // namespace actyp::db
