#include "db/database.hpp"

#include <algorithm>
#include <bit>

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

std::size_t ResourceDatabase::LowerSlot(MachineId id) const {
  return static_cast<std::size_t>(
      std::lower_bound(
          slots_.begin(), slots_.end(), id,
          [](const Slot& slot, MachineId want) { return slot.id < want; }) -
      slots_.begin());
}

std::size_t ResourceDatabase::SlotOf(MachineId id) const {
  // Dense ids (all Add assigns) sit at id - 1; sparse ones are searched.
  if (id != kInvalidMachine && id - 1 < slots_.size() &&
      slots_[id - 1].id == id) {
    return id - 1;
  }
  const std::size_t slot = LowerSlot(id);
  return slot < slots_.size() && slots_[slot].id == id ? slot : kNoSlot;
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
  if (begin == journal_.end()) return version_;
  // Mark each journaled record's slot (records are never removed, so
  // every journaled id has one), then emit the marked slots in slot
  // order, which is ascending id order, clearing the words read.
  changed_.resize((slots_.size() + 63) / 64);
  std::size_t lo = kNoSlot, hi = 0;
  for (auto it = begin; it != journal_.end(); ++it) {
    const std::size_t slot = SlotOf(it->second);
    changed_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    lo = std::min(lo, slot);
    hi = std::max(hi, slot);
  }
  for (std::size_t word = lo / 64; word <= hi / 64; ++word) {
    for (std::uint64_t bits = changed_[word]; bits != 0; bits &= bits - 1) {
      out->push_back(slots_[word * 64 + std::countr_zero(bits)].id);
    }
    changed_[word] = 0;
  }
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
  // Assigned ids exceed every id in the store, so they append.
  std::size_t slot = records_.size();
  if (record.id == kInvalidMachine) {
    record.id = next_id_++;
  } else {
    slot = LowerSlot(record.id);
    if (slot < slots_.size() && slots_[slot].id == record.id) {
      return AlreadyExists("machine id " + std::to_string(record.id) +
                           " already registered");
    }
    next_id_ = std::max(next_id_, record.id + 1);
  }
  const MachineId id = record.id;
  const auto where = static_cast<std::ptrdiff_t>(slot);
  slots_.insert(slots_.begin() + where,
                Slot{id, record.state == MachineState::kUp,
                     by_name_.emplace(record.name, id).first});
  MarkDirtyLocked(*records_.insert(records_.begin() + where,
                                   std::move(record)));
  return id;
}

void ResourceDatabase::Reserve(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.reserve(n);
  slots_.reserve(n);
}

Result<MachineRecord> ResourceDatabase::Get(MachineId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t slot = SlotOf(id);
  if (slot == kNoSlot) return NotFound("machine id " + std::to_string(id));
  return records_[slot];
}

Result<MachineRecord> ResourceDatabase::GetByName(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return NotFound("machine '" + name + "'");
  return records_[SlotOf(it->second)];
}

Status ResourceDatabase::Update(
    MachineId id, const std::function<void(MachineRecord&)>& mutate) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t index = SlotOf(id);
  if (index == kNoSlot) return NotFound("machine id " + std::to_string(id));
  MachineRecord& rec = records_[index];
  Slot& slot = slots_[index];
  mutate(rec);
  rec.id = id;  // id is immutable
  slot.up = rec.state == MachineState::kUp;
  const bool indexed = slot.name != by_name_.end();
  if (!indexed || rec.name != slot.name->first) {
    if (indexed) by_name_.erase(slot.name);
    const auto [entry, added] = by_name_.try_emplace(rec.name, id);
    slot.name = added ? entry : by_name_.end();
  }
  MarkDirtyLocked(rec);
  return Status::Ok();
}

void ResourceDatabase::ListUp(std::vector<MachineId>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->clear();
  for (const Slot& slot : slots_) {
    if (slot.up) out->push_back(slot.id);
  }
}

std::vector<MachineId> ResourceDatabase::ClaimMatching(
    const query::Query& query, const std::string& pool_name,
    std::size_t limit) {
  const Symbol claim = Intern(pool_name);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MachineId> claimed;
  for (MachineRecord& rec : records_) {
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
    claimed.push_back(rec.id);
  }
  return claimed;
}

std::size_t ResourceDatabase::ReleaseAllFrom(const std::string& pool_name) {
  const Symbol claim = Intern(pool_name);
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t released = 0;
  for (MachineRecord& rec : records_) {
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
  const std::size_t slot = SlotOf(id);
  if (slot == kNoSlot) return NotFound("machine id " + std::to_string(id));
  MachineRecord& rec = records_[slot];
  if (rec.taken_by.text() != pool_name) {
    return PermissionDenied("machine " + std::to_string(id) +
                            " is not taken by '" + pool_name + "'");
  }
  rec.taken_by = Symbol();
  MarkDirtyLocked(rec);
  return Status::Ok();
}

std::vector<MachineId> ResourceDatabase::ListTakenBy(
    const std::string& pool_name) const {
  const Symbol claim = Intern(pool_name);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MachineId> out;
  for (const MachineRecord& rec : records_) {
    if (rec.taken_by == claim) out.push_back(rec.id);
  }
  return out;
}

void ResourceDatabase::VisitRecords(
    const std::vector<MachineId>& ids,
    const std::function<void(std::size_t, const MachineRecord*)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::size_t slot = SlotOf(ids[i]);
    fn(i, slot == kNoSlot ? nullptr : &records_[slot]);
  }
}

void ResourceDatabase::ForEach(
    const std::function<void(const MachineRecord&)>& fn) const {
  std::vector<MachineRecord> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = records_;
  }
  for (const auto& rec : snapshot) fn(rec);
}

void ResourceDatabase::VisitAll(
    const std::function<void(const MachineRecord&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const MachineRecord& rec : records_) fn(rec);
}

std::size_t ResourceDatabase::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::size_t ResourceDatabase::free_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const MachineRecord& rec : records_) {
    if (rec.taken_by.empty() && rec.IsUsable()) ++n;
  }
  return n;
}

std::string ResourceDatabase::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const MachineRecord& rec : records_) {
    out += rec.Serialize();
    out += '\n';
  }
  return out;
}

Status ResourceDatabase::LoadFrom(std::string_view text) {
  // Walks the text's lines in place; only the parsed records are kept.
  const auto lines = static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') +
      (!text.empty() && text.back() != '\n'));
  Reserve(size() + lines);
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
