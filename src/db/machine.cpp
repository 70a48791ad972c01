#include "db/machine.hpp"

#include <algorithm>
#include <cstdio>

#include "common/strings.hpp"

namespace actyp::db {

std::string_view MachineStateName(MachineState s) {
  switch (s) {
    case MachineState::kUp: return "up";
    case MachineState::kDown: return "down";
    case MachineState::kBlocked: return "blocked";
  }
  return "down";
}

std::optional<MachineState> ParseMachineState(std::string_view text) {
  const std::string lower = ToLower(text);
  if (lower == "up") return MachineState::kUp;
  if (lower == "down") return MachineState::kDown;
  if (lower == "blocked") return MachineState::kBlocked;
  return std::nullopt;
}

namespace {
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}
}  // namespace

bool GroupListAdmits(const SymbolList& groups, std::string_view group) {
  return groups.empty() ||
         std::any_of(groups.begin(), groups.end(), [group](Symbol g) {
           return EqualsIgnoreCase(g.text(), group);
         });
}

void ParamList::Set(Symbol key, Symbol value) {
  // Scan from the back: builders mostly add keys in order.
  const std::string_view text = key.text();
  auto it = entries_.end();
  while (it != entries_.begin() && text < std::prev(it)->key.text()) --it;
  if (it != entries_.begin() && std::prev(it)->key == key) {
    std::prev(it)->value = value;
    return;
  }
  entries_.insert(it, Entry{key, value});
}

std::optional<std::string_view> ParamList::Get(std::string_view key) const {
  for (const Entry& entry : entries_) {
    const int order = entry.key.text().compare(key);
    if (order == 0) return entry.value.text();
    if (order > 0) break;
  }
  return std::nullopt;
}

bool ParamList::Erase(std::string_view key) {
  return std::erase_if(entries_, [key](const Entry& entry) {
           return entry.key.text() == key;
         }) > 0;
}

std::optional<std::string> MachineRecord::Attribute(
    std::string_view name) const {
  // Administrator-defined parameters take precedence (field 20); this is
  // what makes aggregation criteria extensible "on the fly".
  if (const auto param = params.Get(name)) return std::string(*param);

  if (name == "state") return std::string(MachineStateName(state));
  if (name == "load") return FormatDouble(dyn.load);
  if (name == "activejobs") return std::to_string(dyn.active_jobs);
  if (name == "memory") return FormatDouble(dyn.available_memory_mb);
  if (name == "swap") return FormatDouble(dyn.available_swap_mb);
  if (name == "speed") return FormatDouble(effective_speed);
  if (name == "cpus" || name == "ncpus") return std::to_string(num_cpus);
  if (name == "maxload") return FormatDouble(max_allowed_load);
  if (name == "name" || name == "machine") return this->name;
  if (name == "sharedaccount" && !shared_account.empty()) {
    return std::string(shared_account.text());
  }
  return std::nullopt;
}

bool MachineRecord::AllowsUserGroup(std::string_view group) const {
  return GroupListAdmits(user_groups, group);
}

bool MachineRecord::SupportsToolGroup(std::string_view group) const {
  return GroupListAdmits(tool_groups, group);
}

std::string MachineRecord::Serialize() const {
  // Order mirrors Fig. 3. Lists use ','; params use 'k=v' joined by ','.
  std::string out = std::to_string(id);
  out.reserve(256);
  auto field = [&out](std::string_view text) {
    out += ';';
    out += text;
  };
  auto list = [&out](const SymbolList& symbols) {
    out += ';';
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      if (i > 0) out += ',';
      out += symbols[i].text();
    }
  };
  field(MachineStateName(state));
  field(FormatDouble(dyn.load));
  field(std::to_string(dyn.active_jobs));
  field(FormatDouble(dyn.available_memory_mb));
  field(FormatDouble(dyn.available_swap_mb));
  field(std::to_string(dyn.last_update));
  field(std::to_string(dyn.service_flags));
  field(FormatDouble(effective_speed));
  field(std::to_string(num_cpus));
  field(FormatDouble(max_allowed_load));
  field(name);
  field(object_path.text());
  field(shared_account.text());
  field(std::to_string(execution_unit_port));
  field(std::to_string(pvfs_mount_port));
  list(user_groups);
  list(tool_groups);
  field(shadow_pool.text());
  field(usage_policy.text());
  out += ';';
  for (auto it = params.begin(); it != params.end(); ++it) {
    if (it != params.begin()) out += ',';
    out += it->key.text();
    out += '=';
    out += it->value.text();
  }
  return out;
}

Result<MachineRecord> MachineRecord::Deserialize(std::string_view line) {
  constexpr std::size_t kFields = 21;
  std::string_view fields[kFields];
  std::size_t count = 0;
  ForEachPiece(line, ';', [&](std::string_view piece) {
    if (count < kFields) fields[count] = piece;
    ++count;
  });
  if (count != kFields) {
    return InvalidArgument("machine record has " + std::to_string(count) +
                           " fields, expected 21");
  }
  MachineRecord rec;
  auto want_int = [](std::string_view s,
                     std::string_view what) -> Result<std::int64_t> {
    auto v = ParseInt(s);
    if (!v) return InvalidArgument("bad integer for " + std::string(what));
    return *v;
  };
  auto want_double = [](std::string_view s,
                        std::string_view what) -> Result<double> {
    auto v = ParseDouble(s);
    if (!v) return InvalidArgument("bad number for " + std::string(what));
    return *v;
  };
  // Non-empty ','-separated pieces, interned in order.
  auto symbols = [](std::string_view text) {
    SymbolList out;
    ForEachPiece(text, ',', [&out](std::string_view piece) {
      if (!piece.empty()) out.push_back(Intern(piece));
    });
    return out;
  };

  auto id = want_int(fields[0], "id");
  if (!id.ok()) return id.status();
  rec.id = static_cast<MachineId>(*id);

  auto state = ParseMachineState(fields[1]);
  if (!state) {
    return InvalidArgument("bad machine state '" + std::string(fields[1]) +
                           "'");
  }
  rec.state = *state;

  auto load = want_double(fields[2], "load");
  if (!load.ok()) return load.status();
  rec.dyn.load = *load;
  auto jobs = want_int(fields[3], "active_jobs");
  if (!jobs.ok()) return jobs.status();
  rec.dyn.active_jobs = static_cast<int>(*jobs);
  auto mem = want_double(fields[4], "memory");
  if (!mem.ok()) return mem.status();
  rec.dyn.available_memory_mb = *mem;
  auto swap = want_double(fields[5], "swap");
  if (!swap.ok()) return swap.status();
  rec.dyn.available_swap_mb = *swap;
  auto upd = want_int(fields[6], "last_update");
  if (!upd.ok()) return upd.status();
  rec.dyn.last_update = *upd;
  auto flags = want_int(fields[7], "service_flags");
  if (!flags.ok()) return flags.status();
  rec.dyn.service_flags = static_cast<std::uint32_t>(*flags);

  auto speed = want_double(fields[8], "effective_speed");
  if (!speed.ok()) return speed.status();
  rec.effective_speed = *speed;
  auto cpus = want_int(fields[9], "num_cpus");
  if (!cpus.ok()) return cpus.status();
  rec.num_cpus = static_cast<int>(*cpus);
  auto maxload = want_double(fields[10], "max_allowed_load");
  if (!maxload.ok()) return maxload.status();
  rec.max_allowed_load = *maxload;

  rec.name = fields[11];
  rec.object_path = Intern(fields[12]);
  rec.shared_account = Intern(fields[13]);

  auto eport = want_int(fields[14], "execution_unit_port");
  if (!eport.ok()) return eport.status();
  rec.execution_unit_port = static_cast<std::uint16_t>(*eport);
  auto pport = want_int(fields[15], "pvfs_mount_port");
  if (!pport.ok()) return pport.status();
  rec.pvfs_mount_port = static_cast<std::uint16_t>(*pport);

  rec.user_groups = symbols(fields[16]);
  rec.tool_groups = symbols(fields[17]);
  rec.shadow_pool = Intern(fields[18]);
  rec.usage_policy = Intern(fields[19]);

  Status status;
  ForEachPiece(fields[20], ',', [&](std::string_view pair) {
    if (pair.empty() || !status.ok()) return;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      status = InvalidArgument("bad admin param '" + std::string(pair) + "'");
      return;
    }
    const std::string_view key = TrimView(pair.substr(0, eq));
    rec.params.Set(IsLower(key) ? Intern(key) : Intern(ToLower(key)),
                   Intern(TrimView(pair.substr(eq + 1))));
  });
  if (!status.ok()) return status;
  return rec;
}

}  // namespace actyp::db
