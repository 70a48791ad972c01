#include "baseline/scan_cache.hpp"

#include <vector>

namespace actyp::baseline {

std::size_t ScanCache::FullSweep() {
  mirror_.clear();
  database_->VisitAll([this](const db::MachineRecord& record) {
    mirror_.emplace_hint(mirror_.end(), record.id, record);
  });
  cursor_ = database_->version();
  primed_ = true;
  return mirror_.size();
}

std::size_t ScanCache::Refresh() {
  std::size_t refreshed = 0;
  if (!primed_) {
    refreshed = FullSweep();
  } else {
    std::vector<db::MachineId> dirty;
    const auto next = database_->ChangesSince(cursor_, &dirty);
    if (!next.has_value()) {
      // Cursor fell out of the journal window: resweep rather than
      // miss silently-compacted changes.
      refreshed = FullSweep();
    } else {
      cursor_ = *next;
      database_->VisitRecords(
          dirty, [this, &dirty](std::size_t i, const db::MachineRecord* rec) {
            if (rec != nullptr) {
              mirror_[dirty[i]] = *rec;
            } else {
              mirror_.erase(dirty[i]);
            }
          });
      refreshed = dirty.size();
    }
  }
  entries_refreshed_ += refreshed;
  return refreshed;
}

}  // namespace actyp::baseline
