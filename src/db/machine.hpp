// MachineRecord: one white-pages entry, carrying every field of the
// PUNCH resource database (paper Fig. 3, fields 1-20).
//
// Compact layout: the record keeps only its host name as a string of
// its own. Every other string field (object path, shared account, user
// and tool groups, shadow pool and policy names, param keys and values,
// the taken mark) is a 4-byte Symbol from the process-wide symbol
// table, so the few dozen strings a fleet repeats are stored once.
// Symbol numbers never reach output: params sort by key text, and
// Serialize() writes text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.hpp"
#include "common/status.hpp"
#include "common/symbols.hpp"

namespace actyp::db {

using MachineId = std::uint32_t;
inline constexpr MachineId kInvalidMachine = 0;

// Field 1: resource state.
enum class MachineState { kUp, kDown, kBlocked };

std::string_view MachineStateName(MachineState s);
std::optional<MachineState> ParseMachineState(std::string_view text);

// Fields 2-7: dynamic state maintained by the resource monitor.
struct DynamicState {
  double load = 0.0;              // field 2: current load average
  int active_jobs = 0;            // field 3
  double available_memory_mb = 0; // field 4
  double available_swap_mb = 0;   // field 5
  SimTime last_update = 0;        // field 6: time of last monitor update
  std::uint32_t service_flags = 0;// field 7: PUNCH service status flags
};

// Bits for DynamicState::service_flags.
enum ServiceFlag : std::uint32_t {
  kExecutionUnitUp = 1u << 0,
  kPvfsManagerUp = 1u << 1,
  kProxyServerUp = 1u << 2,
};

// Field 20: administrator-defined key-value parameters, a flat list of
// interned (key, value) pairs kept sorted by key text, so it walks and
// serializes in the order a std::map<std::string, std::string> would.
class ParamList {
 public:
  struct Entry {
    Symbol key;
    Symbol value;
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  // Sets `key` to `value`, replacing any value it had.
  void Set(Symbol key, Symbol value);
  void Set(std::string_view key, std::string_view value) {
    Set(Intern(key), Intern(value));
  }
  // The value of `key`, if set.
  [[nodiscard]] std::optional<std::string_view> Get(std::string_view key) const;
  // Removes `key`; returns whether it was set.
  bool Erase(std::string_view key);

  void clear() { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

  friend bool operator==(const ParamList&, const ParamList&) = default;

 private:
  std::vector<Entry> entries_;
};

// Fields 16-17: true when `groups` is empty (open to all) or names
// `group`, ignoring case.
[[nodiscard]] bool GroupListAdmits(const SymbolList& groups,
                                   std::string_view group);

struct MachineRecord {
  MachineId id = kInvalidMachine;

  MachineState state = MachineState::kUp;  // field 1
  DynamicState dyn;                        // fields 2-7

  // Fields 8-11: relatively static machine description.
  double effective_speed = 1.0;  // field 8 (SPEC-like units)
  int num_cpus = 1;              // field 9
  double max_allowed_load = 1.0; // field 10
  std::string name;              // field 11 (host name, unique)

  // Field 12: machine object pointer — path to access/audit info (ssh
  // key, owner, server start instructions).
  Symbol object_path;

  // Field 13: shared account identifier (e.g. "nobody"); empty if none.
  Symbol shared_account;

  // Fields 14-15: TCP ports of the PUNCH execution unit and the PVFS
  // mount manager.
  std::uint16_t execution_unit_port = 0;
  std::uint16_t pvfs_mount_port = 0;

  // Marker used by resource pools (§5.2.3): claim name of the pool
  // currently owning this machine in its cache, empty when free. Not a
  // Fig. 3 field — it is the "taken" mark the paper describes.
  Symbol taken_by;

  // Fields 16-17: user groups allowed on this machine and tool groups it
  // supports.
  SymbolList user_groups;
  SymbolList tool_groups;

  // Field 18: shadow account pool pointer (name resolved through the
  // ShadowAccountRegistry).
  Symbol shadow_pool;

  // Field 19: usage policy pointer (name resolved through the
  // PolicyRegistry); empty = no policy.
  Symbol usage_policy;

  // Field 20: administrator-defined key-value parameters (arch, memory,
  // ostype, osversion, owner, swap, cms, ...). Keys read by Deserialize
  // are lower-cased.
  ParamList params;

  // Change-tracking stamp maintained by ResourceDatabase: the global
  // database version at this record's last mutation. Lets consumers
  // (pool refresh sweeps, the monitor) skip records that did not change
  // since their cursor. Not a Fig. 3 field and not serialized.
  std::uint64_t version = 0;

  // Resolves a query rsrc attribute name against this record. Admin
  // params win; a set of built-in names map onto structured fields so
  // queries can constrain load, speed, cpus, memory, swap, and state.
  [[nodiscard]] std::optional<std::string> Attribute(
      std::string_view name) const;

  [[nodiscard]] bool IsUsable() const {
    return state == MachineState::kUp;
  }

  // Case-insensitive; an empty list admits every group.
  [[nodiscard]] bool AllowsUserGroup(std::string_view group) const;
  [[nodiscard]] bool SupportsToolGroup(std::string_view group) const;

  // One-record-per-line text serialization (field;field;...), used for
  // database snapshots.
  [[nodiscard]] std::string Serialize() const;
  static Result<MachineRecord> Deserialize(std::string_view line);
};

}  // namespace actyp::db
