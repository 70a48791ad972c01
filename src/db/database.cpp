#include "db/database.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace actyp::db {

void ResourceDatabase::MarkDirtyLocked(MachineRecord& rec) {
  rec.version = ++version_;
  if (!journal_.empty() && journal_.back().second == rec.id) {
    // Same record mutated again before anyone read the journal entry:
    // advancing the tail entry's version keeps every cursor correct
    // (cursors below the new version still see the id) without growing
    // the journal — the common case for job-start/-end double updates.
    journal_.back().first = version_;
    return;
  }
  if (journal_.size() >= kJournalCapacity) {
    // Drop the oldest half; consumers whose cursor predates the floor
    // get a full-refresh signal from ChangesSince.
    const std::size_t keep = kJournalCapacity / 2;
    journal_floor_ = journal_[journal_.size() - keep - 1].first;
    journal_.erase(journal_.begin(),
                   journal_.end() - static_cast<std::ptrdiff_t>(keep));
  }
  journal_.emplace_back(version_, rec.id);
}

std::uint64_t ResourceDatabase::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

std::optional<std::uint64_t> ResourceDatabase::ChangesSince(
    std::uint64_t since, std::vector<MachineId>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (since < journal_floor_) return std::nullopt;
  const auto begin = std::upper_bound(
      journal_.begin(), journal_.end(), since,
      [](std::uint64_t v, const auto& entry) { return v < entry.first; });
  const std::size_t mark = out->size();
  for (auto it = begin; it != journal_.end(); ++it) {
    out->push_back(it->second);
  }
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(mark), out->end());
  out->erase(std::unique(out->begin() + static_cast<std::ptrdiff_t>(mark),
                         out->end()),
             out->end());
  return version_;
}

Result<MachineId> ResourceDatabase::Add(MachineRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record.name.empty()) {
    return InvalidArgument("machine record must have a name");
  }
  if (by_name_.count(record.name)) {
    return AlreadyExists("machine '" + record.name + "' already registered");
  }
  if (record.id == kInvalidMachine) {
    record.id = next_id_++;
  } else {
    if (records_.count(record.id)) {
      return AlreadyExists("machine id " + std::to_string(record.id) +
                           " already registered");
    }
    next_id_ = std::max(next_id_, record.id + 1);
  }
  const MachineId id = record.id;
  by_name_[record.name] = id;
  auto& stored = records_[id];
  stored = std::move(record);
  MarkDirtyLocked(stored);
  return id;
}

Result<MachineRecord> ResourceDatabase::Get(MachineId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    return NotFound("machine id " + std::to_string(id));
  }
  return it->second;
}

Result<MachineRecord> ResourceDatabase::GetByName(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return NotFound("machine '" + name + "'");
  return records_.at(it->second);
}

Status ResourceDatabase::Update(
    MachineId id, const std::function<void(MachineRecord&)>& mutate) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    return NotFound("machine id " + std::to_string(id));
  }
  const std::string old_name = it->second.name;
  mutate(it->second);
  it->second.id = id;  // id is immutable
  if (it->second.name != old_name) {
    by_name_.erase(old_name);
    by_name_[it->second.name] = id;
  }
  MarkDirtyLocked(it->second);
  return Status::Ok();
}

Status ResourceDatabase::UpdateDynamic(MachineId id, const DynamicState& dyn) {
  return Update(id, [&dyn](MachineRecord& rec) { rec.dyn = dyn; });
}

void ResourceDatabase::ApplyDynamic(
    const std::vector<std::pair<MachineId, DynamicState>>& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, dyn] : batch) {
    auto it = records_.find(id);
    if (it == records_.end()) continue;
    it->second.dyn = dyn;
    MarkDirtyLocked(it->second);
  }
}

std::vector<MachineId> ResourceDatabase::ClaimMatching(
    const query::Query& query, const std::string& pool_name,
    std::size_t limit) {
  const Symbol claim = Intern(pool_name);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MachineId> claimed;
  for (auto& [id, rec] : records_) {
    if (limit > 0 && claimed.size() >= limit) break;
    if (!rec.taken_by.empty() || !rec.IsUsable()) continue;
    const MachineRecord& snapshot = rec;
    if (!query.Matches([&snapshot](const std::string& name) {
          return snapshot.Attribute(name);
        })) {
      continue;
    }
    rec.taken_by = claim;
    MarkDirtyLocked(rec);
    claimed.push_back(id);
  }
  return claimed;
}

std::size_t ResourceDatabase::ReleaseAllFrom(const std::string& pool_name) {
  const Symbol claim = Intern(pool_name);
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t released = 0;
  for (auto& [id, rec] : records_) {
    if (rec.taken_by == claim) {
      rec.taken_by = Symbol();
      MarkDirtyLocked(rec);
      ++released;
    }
  }
  return released;
}

Status ResourceDatabase::Release(MachineId id, const std::string& pool_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    return NotFound("machine id " + std::to_string(id));
  }
  if (it->second.taken_by.text() != pool_name) {
    return PermissionDenied("machine " + std::to_string(id) +
                            " is not taken by '" + pool_name + "'");
  }
  it->second.taken_by = Symbol();
  MarkDirtyLocked(it->second);
  return Status::Ok();
}

std::vector<MachineId> ResourceDatabase::ListTakenBy(
    const std::string& pool_name) const {
  const Symbol claim = Intern(pool_name);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MachineId> out;
  for (const auto& [id, rec] : records_) {
    if (rec.taken_by == claim) out.push_back(id);
  }
  return out;
}

void ResourceDatabase::VisitRecords(
    const std::vector<MachineId>& ids,
    const std::function<void(std::size_t, const MachineRecord*)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto it = records_.find(ids[i]);
    fn(i, it == records_.end() ? nullptr : &it->second);
  }
}

void ResourceDatabase::ForEach(
    const std::function<void(const MachineRecord&)>& fn) const {
  std::vector<MachineRecord> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(records_.size());
    for (const auto& [id, rec] : records_) snapshot.push_back(rec);
  }
  for (const auto& rec : snapshot) fn(rec);
}

void ResourceDatabase::VisitAll(
    const std::function<void(const MachineRecord&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, rec] : records_) fn(rec);
}

std::size_t ResourceDatabase::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::size_t ResourceDatabase::free_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, rec] : records_) {
    if (rec.taken_by.empty() && rec.IsUsable()) ++n;
  }
  return n;
}

std::string ResourceDatabase::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [id, rec] : records_) {
    out += rec.Serialize();
    out += '\n';
  }
  return out;
}

Status ResourceDatabase::LoadFrom(std::string_view text) {
  // Walks the text's lines in place; only the parsed records are kept.
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    const std::string_view line = text.substr(0, end);
    text = end == std::string_view::npos ? std::string_view()
                                         : text.substr(end + 1);
    if (TrimView(line).empty()) continue;
    auto rec = MachineRecord::Deserialize(line);
    if (!rec.ok()) return rec.status();
    auto added = Add(std::move(rec.value()));
    if (!added.ok()) return added.status();
  }
  return Status::Ok();
}

}  // namespace actyp::db
