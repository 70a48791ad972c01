// ScanCache: a journal-fed mirror of the ResourceDatabase for the
// centralized baselines. The central scheduler and the matchmaker scan
// the whole white pages on every query (resp. every cycle); without a
// cache each scan re-reads the live database, so refresh cost is paid
// per record per scan even when nothing changed. The cache keeps a
// private copy of every record — claims, dynamic load, availability and
// all — and refreshes it from the database's change journal, so the
// per-scan refresh cost is proportional to churn instead of fleet size.
//
// The mirror iterates in ascending machine-id order, exactly like
// ResourceDatabase::VisitAll, so first-found-wins tie-breaks (and thus
// every allocation decision) are unchanged from scanning the live
// database. When the journal window has been outgrown (cursor predates
// the retained entries) the cache falls back to a full sweep and
// re-cursors at the current version — correctness never depends on the
// journal's bounded capacity.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "db/database.hpp"

namespace actyp::baseline {

class ScanCache {
 public:
  explicit ScanCache(db::ResourceDatabase* database) : database_(database) {}

  // Brings the mirror up to date with the database and returns the
  // number of entries refreshed by this call (the full fleet on the
  // priming sweep or a journal-overflow resweep; otherwise just the
  // records the journal reported dirty, including deletions).
  std::size_t Refresh();

  // Iterates the mirrored records in ascending machine-id order.
  void ForEach(const std::function<void(const db::MachineRecord&)>& fn) const {
    for (const auto& [id, record] : mirror_) fn(record);
  }

  [[nodiscard]] std::size_t size() const { return mirror_.size(); }

  // Total entries refreshed across every Refresh() call.
  [[nodiscard]] std::uint64_t entries_refreshed() const {
    return entries_refreshed_;
  }

 private:
  // Replaces the mirror with a fresh copy of the whole database and
  // re-cursors at its current version. Returns the entry count.
  std::size_t FullSweep();

  db::ResourceDatabase* database_;
  bool primed_ = false;
  std::uint64_t cursor_ = 0;
  std::uint64_t entries_refreshed_ = 0;
  std::map<db::MachineId, db::MachineRecord> mirror_;
};

}  // namespace actyp::baseline
