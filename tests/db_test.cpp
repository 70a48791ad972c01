// Tests for the white-pages database: Fig. 3 record fields, attribute
// resolution, serialization, claim/release (taken marking), shadow
// accounts, usage policies, and the fleet's heap budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "db/database.hpp"
#include "db/machine.hpp"
#include "db/policy.hpp"
#include "db/shadow.hpp"
#include "monitor/monitor.hpp"
#include "query/parser.hpp"
#include "workload/generator.hpp"

// glibc's heap counters see every allocation only where no sanitizer
// replaces the allocator.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ACTYP_HEAP_COUNTERS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ACTYP_HEAP_COUNTERS 0
#endif
#endif
#if !defined(ACTYP_HEAP_COUNTERS)
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define ACTYP_HEAP_COUNTERS 1
#else
#define ACTYP_HEAP_COUNTERS 0
#endif
#endif

namespace actyp::db {
namespace {

std::vector<std::string> Texts(const SymbolList& symbols) {
  std::vector<std::string> out;
  for (const Symbol s : symbols) out.emplace_back(s.text());
  return out;
}

MachineRecord SampleMachine(const std::string& name = "ece1.purdue.edu") {
  MachineRecord rec;
  rec.name = name;
  rec.state = MachineState::kUp;
  rec.dyn.load = 0.4;
  rec.dyn.active_jobs = 1;
  rec.dyn.available_memory_mb = 512;
  rec.dyn.available_swap_mb = 1024;
  rec.dyn.last_update = 12345;
  rec.dyn.service_flags = kExecutionUnitUp | kPvfsManagerUp;
  rec.effective_speed = 1.7;
  rec.num_cpus = 2;
  rec.max_allowed_load = 1.5;
  rec.object_path = Intern("/etc/punch/machines/ece1");
  rec.shared_account = Intern("nobody");
  rec.execution_unit_port = 7001;
  rec.pvfs_mount_port = 7002;
  rec.user_groups = {Intern("ece"), Intern("public")};
  rec.tool_groups = {Intern("simulation")};
  rec.shadow_pool = Intern("shadow.ece1");
  rec.usage_policy = Intern("public-load");
  rec.params.Set("arch", "sun");
  rec.params.Set("memory", "512");
  rec.params.Set("domain", "purdue");
  rec.params.Set("license", "tsuprem4");
  return rec;
}

// --- MachineRecord ---

TEST(MachineRecord, StateNames) {
  EXPECT_EQ(MachineStateName(MachineState::kUp), "up");
  EXPECT_EQ(ParseMachineState("BLOCKED"), MachineState::kBlocked);
  EXPECT_FALSE(ParseMachineState("happy").has_value());
}

TEST(MachineRecord, AdminParamsWinOverBuiltins) {
  MachineRecord rec = SampleMachine();
  // 'memory' appears in params (static 512) and as a dynamic field; the
  // admin param takes precedence, making aggregation criteria stable.
  EXPECT_EQ(rec.Attribute("memory"), "512");
  rec.params.Erase("memory");
  EXPECT_EQ(rec.Attribute("memory"), "512");  // falls back to dynamic
  rec.dyn.available_memory_mb = 256;
  EXPECT_EQ(rec.Attribute("memory"), "256");
}

TEST(MachineRecord, BuiltinAttributes) {
  MachineRecord rec = SampleMachine();
  EXPECT_EQ(rec.Attribute("state"), "up");
  EXPECT_EQ(rec.Attribute("load"), "0.4");
  EXPECT_EQ(rec.Attribute("activejobs"), "1");
  EXPECT_EQ(rec.Attribute("speed"), "1.7");
  EXPECT_EQ(rec.Attribute("cpus"), "2");
  EXPECT_EQ(rec.Attribute("name"), "ece1.purdue.edu");
  EXPECT_EQ(rec.Attribute("sharedaccount"), "nobody");
  EXPECT_FALSE(rec.Attribute("nonexistent").has_value());
}

// Attribute() values for every built-in name, for params (which win over
// built-in names) and for keys that Deserialize lower-cased.
TEST(MachineRecord, AttributeValuesForEveryName) {
  MachineRecord rec = SampleMachine();
  rec.params.clear();
  const std::vector<std::pair<std::string, std::optional<std::string>>>
      builtins = {{"state", "up"},
                  {"load", "0.4"},
                  {"activejobs", "1"},
                  {"memory", "512"},
                  {"swap", "1024"},
                  {"speed", "1.7"},
                  {"cpus", "2"},
                  {"ncpus", "2"},
                  {"maxload", "1.5"},
                  {"name", "ece1.purdue.edu"},
                  {"machine", "ece1.purdue.edu"},
                  {"sharedaccount", "nobody"},
                  {"arch", std::nullopt},
                  {"Load", std::nullopt},
                  {"", std::nullopt}};
  for (const auto& [name, value] : builtins) {
    EXPECT_EQ(rec.Attribute(name), value) << name;
  }
  rec.shared_account = Symbol();
  EXPECT_FALSE(rec.Attribute("sharedaccount").has_value());

  // Params win over every built-in name.
  for (const auto& [name, value] : builtins) {
    if (!name.empty()) rec.params.Set(name, "p-" + name);
  }
  for (const auto& [name, value] : builtins) {
    if (name.empty()) continue;
    EXPECT_EQ(rec.Attribute(name), "p-" + name) << name;
  }

  // Deserialize trims keys and values and lower-cases keys; lookups
  // stay exact, so a mixed-case name finds nothing.
  MachineRecord bare = SampleMachine();
  bare.params.clear();
  const std::string line = bare.Serialize() + " Arch = sun ,OSType=unix,Load=9";
  auto parsed = MachineRecord::Deserialize(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Attribute("arch"), "sun");
  EXPECT_EQ(parsed->Attribute("ostype"), "unix");
  EXPECT_EQ(parsed->Attribute("load"), "9");
  EXPECT_FALSE(parsed->Attribute("Arch").has_value());
  EXPECT_FALSE(parsed->Attribute("OSType").has_value());
  EXPECT_EQ(parsed->Serialize(),
            bare.Serialize() + "arch=sun,load=9,ostype=unix");
}

TEST(MachineRecord, ParamListKeepsKeyTextOrder) {
  ParamList params;
  params.Set("owner", "lab1");
  params.Set("arch", "sun");
  params.Set("cluster", "c1");
  params.Set("arch", "hp");  // replaces
  std::vector<std::string> keys;
  for (const auto& entry : params) keys.emplace_back(entry.key.text());
  EXPECT_EQ(keys, (std::vector<std::string>{"arch", "cluster", "owner"}));
  EXPECT_EQ(params.Get("arch"), "hp");
  EXPECT_FALSE(params.Get("memory").has_value());
  EXPECT_TRUE(params.Erase("cluster"));
  EXPECT_FALSE(params.Erase("cluster"));
  EXPECT_EQ(params.size(), 2u);
}

TEST(MachineRecord, UserAndToolGroups) {
  MachineRecord rec = SampleMachine();
  EXPECT_TRUE(rec.AllowsUserGroup("ECE"));
  EXPECT_FALSE(rec.AllowsUserGroup("physics"));
  EXPECT_TRUE(rec.SupportsToolGroup("simulation"));
  EXPECT_FALSE(rec.SupportsToolGroup("cad"));
  rec.user_groups.clear();
  EXPECT_TRUE(rec.AllowsUserGroup("anyone"));  // empty list = open
}

TEST(MachineRecord, SerializeRoundTrip) {
  const MachineRecord rec = SampleMachine();
  auto round = MachineRecord::Deserialize(rec.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->name, rec.name);
  EXPECT_EQ(round->state, rec.state);
  EXPECT_DOUBLE_EQ(round->dyn.load, rec.dyn.load);
  EXPECT_EQ(round->dyn.active_jobs, rec.dyn.active_jobs);
  EXPECT_EQ(round->dyn.last_update, rec.dyn.last_update);
  EXPECT_EQ(round->dyn.service_flags, rec.dyn.service_flags);
  EXPECT_EQ(round->num_cpus, rec.num_cpus);
  EXPECT_EQ(round->user_groups, rec.user_groups);
  EXPECT_EQ(round->tool_groups, rec.tool_groups);
  EXPECT_EQ(round->params, rec.params);
  EXPECT_EQ(round->shadow_pool, rec.shadow_pool);
  EXPECT_EQ(round->usage_policy, rec.usage_policy);
  EXPECT_EQ(round->execution_unit_port, rec.execution_unit_port);
}

// Property-style sweep: randomized records survive the round-trip.
class MachineRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(MachineRoundTrip, RandomRecord) {
  Rng rng(1000 + GetParam());
  MachineRecord rec;
  rec.name = "m" + std::to_string(rng.NextBounded(100000));
  rec.state = static_cast<MachineState>(rng.NextBounded(3));
  rec.dyn.load = rng.Uniform(0, 8);
  rec.dyn.active_jobs = static_cast<int>(rng.NextBounded(16));
  rec.dyn.available_memory_mb = rng.Uniform(16, 4096);
  rec.dyn.available_swap_mb = rng.Uniform(16, 8192);
  rec.dyn.last_update = static_cast<SimTime>(rng.NextBounded(1u << 30));
  rec.effective_speed = rng.Uniform(0.1, 5.0);
  rec.num_cpus = 1 + static_cast<int>(rng.NextBounded(8));
  rec.max_allowed_load = rng.Uniform(0.5, 4.0);
  rec.execution_unit_port = static_cast<std::uint16_t>(rng.NextBounded(65536));
  for (int i = 0; i < static_cast<int>(rng.NextBounded(5)); ++i) {
    rec.params.Set("k" + std::to_string(i),
                   "v" + std::to_string(rng.Next() % 97));
    rec.user_groups.push_back(Intern("g" + std::to_string(i)));
  }
  auto round = MachineRecord::Deserialize(rec.Serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->Serialize(), rec.Serialize());
}

INSTANTIATE_TEST_SUITE_P(Fuzz, MachineRoundTrip, ::testing::Range(0, 25));

TEST(MachineRecord, DeserializeRejectsBadInput) {
  EXPECT_FALSE(MachineRecord::Deserialize("").ok());
  EXPECT_FALSE(MachineRecord::Deserialize("1;2;3").ok());
  // Tamper one numeric field in a valid line.
  std::string line = SampleMachine().Serialize();
  const std::size_t semi = line.find(';');
  line = line.substr(0, semi + 1) + "notastate" + line.substr(line.find(';', semi + 1));
  EXPECT_FALSE(MachineRecord::Deserialize(line).ok());
}

// --- ResourceDatabase ---

TEST(ResourceDatabase, AddAssignsIdsAndRejectsDuplicates) {
  ResourceDatabase database;
  auto id1 = database.Add(SampleMachine("a"));
  auto id2 = database.Add(SampleMachine("b"));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(*id1, *id2);
  EXPECT_FALSE(database.Add(SampleMachine("a")).ok());
  EXPECT_EQ(database.size(), 2u);
}

TEST(ResourceDatabase, GetByIdAndName) {
  ResourceDatabase database;
  auto id = database.Add(SampleMachine("host1"));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(database.Get(*id).ok());
  EXPECT_TRUE(database.GetByName("host1").ok());
  EXPECT_FALSE(database.Get(9999).ok());
  EXPECT_FALSE(database.GetByName("nope").ok());
}

TEST(ResourceDatabase, UpdateMutatesUnderLock) {
  ResourceDatabase database;
  auto id = database.Add(SampleMachine("host1"));
  ASSERT_TRUE(database
                  .Update(*id, [](MachineRecord& rec) {
                    rec.dyn.load = 3.5;
                    rec.params.Set("arch", "hp");
                  })
                  .ok());
  auto rec = database.Get(*id);
  EXPECT_DOUBLE_EQ(rec->dyn.load, 3.5);
  EXPECT_EQ(rec->params.Get("arch"), "hp");
}

// Update moves a record's by-name entry only on a real rename. A rename
// onto a name another machine holds leaves that machine's entry, and
// the renamed record is found by id only while the name stays taken.
TEST(ResourceDatabase, UpdateRenamesThroughTheNameIndex) {
  ResourceDatabase database;
  const MachineId a = *database.Add(SampleMachine("a.purdue.edu"));
  const MachineId b = *database.Add(SampleMachine("b.purdue.edu"));
  const auto rename = [](std::string name) {
    return [name](MachineRecord& rec) { rec.name = name; };
  };
  ASSERT_TRUE(database.Update(a, rename("a2.purdue.edu")).ok());
  EXPECT_FALSE(database.GetByName("a.purdue.edu").ok());
  EXPECT_EQ(database.GetByName("a2.purdue.edu")->id, a);

  ASSERT_TRUE(database.Update(a, rename("b.purdue.edu")).ok());
  EXPECT_EQ(database.GetByName("b.purdue.edu")->id, b);
  EXPECT_FALSE(database.GetByName("a2.purdue.edu").ok());
  EXPECT_EQ(database.Get(a)->name, "b.purdue.edu");
  // Both records keep updating; the name's holder keeps it.
  const auto flip = [](MachineRecord& rec) {
    rec.state = MachineState::kDown;
  };
  ASSERT_TRUE(database.Update(a, flip).ok());
  ASSERT_TRUE(database.Update(b, flip).ok());
  EXPECT_EQ(database.GetByName("b.purdue.edu")->id, b);

  ASSERT_TRUE(database.Update(b, rename("b2.purdue.edu")).ok());
  ASSERT_TRUE(database.Update(a, rename("a3.purdue.edu")).ok());
  EXPECT_EQ(database.GetByName("a3.purdue.edu")->id, a);
  EXPECT_EQ(database.GetByName("b2.purdue.edu")->id, b);
  EXPECT_FALSE(database.GetByName("b.purdue.edu").ok());
  EXPECT_TRUE(database.Add(SampleMachine("b.purdue.edu")).ok());
}

TEST(ResourceDatabase, ClaimMatchingMarksTaken) {
  ResourceDatabase database;
  for (int i = 0; i < 10; ++i) {
    MachineRecord rec = SampleMachine("m" + std::to_string(i));
    rec.params.Set("arch", i < 6 ? "sun" : "hp");
    database.Add(std::move(rec));
  }
  auto q = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  ASSERT_TRUE(q.ok());

  const auto claimed = database.ClaimMatching(*q, "poolA");
  EXPECT_EQ(claimed.size(), 6u);
  EXPECT_EQ(database.free_count(), 4u);
  // Second claim with the same criteria finds nothing (all taken).
  EXPECT_TRUE(database.ClaimMatching(*q, "poolB").empty());
  EXPECT_EQ(database.ListTakenBy("poolA").size(), 6u);

  EXPECT_EQ(database.ReleaseAllFrom("poolA"), 6u);
  EXPECT_EQ(database.free_count(), 10u);
}

TEST(ResourceDatabase, ClaimHonorsLimitAndState) {
  ResourceDatabase database;
  for (int i = 0; i < 8; ++i) {
    MachineRecord rec = SampleMachine("m" + std::to_string(i));
    if (i >= 6) rec.state = MachineState::kDown;
    database.Add(std::move(rec));
  }
  auto q = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  EXPECT_EQ(database.ClaimMatching(*q, "poolA", 3).size(), 3u);
  // Down machines are never claimed.
  EXPECT_EQ(database.ClaimMatching(*q, "poolB").size(), 3u);
}

TEST(ResourceDatabase, ReleaseValidatesOwnership) {
  ResourceDatabase database;
  auto id = database.Add(SampleMachine("m0"));
  auto q = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  database.ClaimMatching(*q, "poolA");
  EXPECT_EQ(database.Release(*id, "poolB").code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(database.Release(*id, "poolA").ok());
}

TEST(ResourceDatabase, ConcurrentClaimsPartition) {
  ResourceDatabase database;
  for (int i = 0; i < 200; ++i) database.Add(SampleMachine("m" + std::to_string(i)));
  auto q = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");

  std::vector<std::vector<MachineId>> results(4);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      results[t] = database.ClaimMatching(*q, "pool" + std::to_string(t), 80);
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<MachineId> all;
  std::size_t total = 0;
  for (const auto& r : results) {
    total += r.size();
    all.insert(r.begin(), r.end());
  }
  EXPECT_EQ(all.size(), total) << "claims must be disjoint";
  EXPECT_EQ(total, 200u);
}

TEST(ResourceDatabase, SnapshotRoundTrip) {
  ResourceDatabase database;
  for (int i = 0; i < 5; ++i) database.Add(SampleMachine("m" + std::to_string(i)));
  ResourceDatabase loaded;
  ASSERT_TRUE(loaded.LoadFrom(database.Serialize()).ok());
  EXPECT_EQ(loaded.size(), 5u);
  EXPECT_EQ(loaded.Serialize(), database.Serialize());
}

// A generated fleet, with every string field in use, survives
// Serialize -> LoadFrom -> Serialize byte for byte.
TEST(ResourceDatabase, FleetSnapshotRoundTripsByteForByte) {
  ResourceDatabase database;
  ShadowAccountRegistry shadows;
  workload::FleetSpec spec;
  spec.machine_count = 600;
  spec.cluster_count = 6;
  spec.user_groups = {"ece", "Public"};
  Rng rng(11);
  workload::BuildFleet(spec, rng, &database, &shadows);
  ASSERT_TRUE(database
                  .Update(3,
                          [](MachineRecord& rec) {
                            rec.state = MachineState::kBlocked;
                            rec.shared_account = Intern("nobody");
                            rec.usage_policy = Intern("public-load");
                            rec.params.Set("license", "tsuprem4");
                          })
                  .ok());
  const std::string text = database.Serialize();
  ResourceDatabase loaded;
  ASSERT_TRUE(loaded.LoadFrom(text).ok());
  EXPECT_EQ(loaded.size(), 600u);
  EXPECT_EQ(loaded.Serialize(), text);
}

TEST(ResourceDatabase, LoadFromSkipsBlankLinesAndStopsAtABadOne) {
  const std::string good = SampleMachine("m1").Serialize();
  ResourceDatabase database;
  ASSERT_TRUE(database.LoadFrom("\n" + good + "\n  \n").ok());
  EXPECT_EQ(database.size(), 1u);
  ResourceDatabase bad;
  EXPECT_FALSE(bad.LoadFrom(good + "\n1;2;3\n").ok());
  EXPECT_EQ(bad.size(), 1u);
}

// Get and Update carry every interned field across the database.
TEST(ResourceDatabase, GetAndUpdateKeepEveryInternedField) {
  ResourceDatabase database;
  const auto id = database.Add(SampleMachine("host1"));
  ASSERT_TRUE(id.ok());
  auto got = database.Get(*id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->object_path.text(), "/etc/punch/machines/ece1");
  EXPECT_EQ(got->shared_account.text(), "nobody");
  EXPECT_EQ(Texts(got->user_groups),
            (std::vector<std::string>{"ece", "public"}));
  EXPECT_EQ(Texts(got->tool_groups), std::vector<std::string>{"simulation"});
  EXPECT_EQ(got->shadow_pool.text(), "shadow.ece1");
  EXPECT_EQ(got->usage_policy.text(), "public-load");
  EXPECT_EQ(got->params, SampleMachine().params);
  EXPECT_TRUE(got->taken_by.empty());

  ASSERT_TRUE(database
                  .Update(*id,
                          [](MachineRecord& rec) {
                            rec.object_path = Intern("/etc/punch/h1");
                            rec.shared_account = Intern("guest");
                            rec.user_groups.push_back(Intern("staff"));
                            rec.tool_groups = {Intern("cad"),
                                               Intern("general")};
                            rec.shadow_pool = Intern("shadow.host1");
                            rec.usage_policy = Symbol();
                            rec.params.Set("arch", "hp");
                            rec.params.Erase("license");
                            rec.params.Set("cms", "yes");
                            rec.taken_by = Intern("poolZ");
                          })
                  .ok());
  got = database.Get(*id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->object_path.text(), "/etc/punch/h1");
  EXPECT_EQ(got->shared_account.text(), "guest");
  EXPECT_EQ(Texts(got->user_groups),
            (std::vector<std::string>{"ece", "public", "staff"}));
  EXPECT_EQ(Texts(got->tool_groups),
            (std::vector<std::string>{"cad", "general"}));
  EXPECT_EQ(got->shadow_pool.text(), "shadow.host1");
  EXPECT_TRUE(got->usage_policy.empty());
  EXPECT_EQ(got->Serialize().substr(got->Serialize().rfind(';') + 1),
            "arch=hp,cms=yes,domain=purdue,memory=512");
  EXPECT_EQ(got->taken_by.text(), "poolZ");
  EXPECT_EQ(database.ListTakenBy("poolZ"), std::vector<MachineId>{*id});
  EXPECT_EQ(database.free_count(), 0u);
}

// A memory ratchet for the white pages: heap bytes per machine of a
// generated fleet with its shadow accounts. Measured with GCC 12 and
// glibc 2.36: 1,895 B per machine with a record of plain strings,
// 762 B with interned strings and lazy shadow pools. The bound is the
// latter plus 10%.
TEST(WhitePagesMemory, FleetStaysWithinItsHeapBudget) {
#if !ACTYP_HEAP_COUNTERS
  GTEST_SKIP() << "glibc heap counters unavailable (sanitizer build or "
                  "non-glibc platform)";
#else
  constexpr std::size_t kMachines = 20000;
  constexpr double kBoundBytesPerMachine = 838;
  auto in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
  };
  const double before = in_use();
  ResourceDatabase database;
  ShadowAccountRegistry shadows;
  workload::FleetSpec spec;
  spec.machine_count = kMachines;
  spec.cluster_count = 8;
  Rng rng(1);
  workload::BuildFleet(spec, rng, &database, &shadows);
  const double per_machine = (in_use() - before) / kMachines;
  RecordProperty("heap_bytes_per_machine", static_cast<int>(per_machine));
  EXPECT_LT(per_machine, kBoundBytesPerMachine)
      << "the white pages grew to " << per_machine << " B per machine";
#endif
}

// --- differential oracle: the flat store against a std::map model ---

// The white pages as a std::map store: ids and names in ordered maps,
// a rename found by copying the old name, a change feed deduped by
// sort + unique, and a monitor sweep that batches its rewrites and
// applies them after the walk. Every observable of ResourceDatabase and
// ResourceMonitor::Step must match it.
class MapWhitePages {
 public:
  explicit MapWhitePages(std::uint64_t monitor_seed) : rng_(monitor_seed) {}

  std::optional<MachineId> Add(MachineRecord rec) {
    if (rec.name.empty() || by_name_.count(rec.name)) return std::nullopt;
    if (rec.id == kInvalidMachine) {
      rec.id = next_id_++;
    } else {
      if (records_.count(rec.id)) return std::nullopt;
      next_id_ = std::max(next_id_, rec.id + 1);
    }
    const MachineId id = rec.id;
    by_name_[rec.name] = id;
    MachineRecord& stored = records_[id] = std::move(rec);
    Mark(stored);
    return id;
  }

  bool Update(MachineId id, const std::function<void(MachineRecord&)>& fn) {
    const auto it = records_.find(id);
    if (it == records_.end()) return false;
    const std::string old_name = it->second.name;
    fn(it->second);
    it->second.id = id;
    if (it->second.name != old_name) {
      by_name_.erase(old_name);
      by_name_[it->second.name] = id;
    }
    Mark(it->second);
    return true;
  }

  std::vector<MachineId> Claim(const query::Query& query, Symbol pool,
                               std::size_t limit) {
    std::vector<MachineId> claimed;
    for (auto& [id, rec] : records_) {
      if (limit > 0 && claimed.size() >= limit) break;
      if (!rec.taken_by.empty() || !rec.IsUsable()) continue;
      const MachineRecord& view = rec;
      if (!query.Matches([&view](const std::string& name) {
            return view.Attribute(name);
          })) {
        continue;
      }
      rec.taken_by = pool;
      Mark(rec);
      claimed.push_back(id);
    }
    return claimed;
  }

  bool Release(MachineId id, Symbol pool) {
    const auto it = records_.find(id);
    if (it == records_.end() || it->second.taken_by != pool) return false;
    it->second.taken_by = Symbol();
    Mark(it->second);
    return true;
  }

  std::size_t ReleaseAllFrom(Symbol pool) {
    std::size_t released = 0;
    for (auto& [id, rec] : records_) {
      if (rec.taken_by != pool) continue;
      rec.taken_by = Symbol();
      Mark(rec);
      ++released;
    }
    return released;
  }

  // ResourceMonitor::Step with the default MonitorConfig.
  std::size_t Sweep(SimTime now) {
    const monitor::MonitorConfig config;
    std::vector<std::pair<MachineId, DynamicState>> batch;
    for (const auto& [id, rec] : records_) {
      auto it = monitor_.find(id);
      if (it == monitor_.end()) {
        Tracked t;
        t.load = std::max(0.0, config.background_load_mean +
                                   rng_.Gaussian(0.0, 0.1));
        t.memory = rec.dyn.available_memory_mb;
        t.swap = rec.dyn.available_swap_mb;
        t.last_update = rec.dyn.last_update;
        it = monitor_.emplace(id, t).first;
      }
      Tracked& t = it->second;
      const SimDuration since = now - t.last_update;
      if (since < config.update_period) continue;
      const double dt = ToSeconds(since);
      const double drift = config.reversion_rate *
                           (config.background_load_mean - t.load) * dt;
      const double diffusion = config.volatility *
                               std::sqrt(std::max(dt, 0.0)) * rng_.Gaussian();
      t.load = std::max(0.0, t.load + drift + diffusion);
      t.last_update = now;
      DynamicState dyn;
      dyn.load = t.load;
      dyn.available_memory_mb = std::max(0.0, t.memory);
      dyn.available_swap_mb = t.swap;
      dyn.last_update = now;
      dyn.service_flags = rec.dyn.service_flags;
      batch.emplace_back(id, dyn);
    }
    for (const auto& [id, dyn] : batch) {
      records_.at(id).dyn = dyn;
      Mark(records_.at(id));
    }
    return batch.size();
  }

  std::optional<std::uint64_t> ChangesSince(
      std::uint64_t since, std::vector<MachineId>* out) const {
    if (since < floor_) return std::nullopt;
    for (const auto& [version, id] : journal_) {
      if (version > since) out->push_back(id);
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
    return version_;
  }

  const std::map<MachineId, MachineRecord>& records() const {
    return records_;
  }
  std::string Serialize() const {
    std::string out;
    for (const auto& [id, rec] : records_) out += rec.Serialize() + "\n";
    return out;
  }
  std::optional<MachineId> IdOf(const std::string& name) const {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return std::nullopt;
    return it->second;
  }
  std::uint64_t version() const { return version_; }

 private:
  struct Tracked {
    double load, memory, swap;
    SimTime last_update;
  };

  void Mark(MachineRecord& rec) {
    rec.version = ++version_;
    if (!journal_.empty() && journal_.back().second == rec.id) {
      journal_.back().first = version_;
      return;
    }
    if (journal_.size() >= kJournalCapacity) {
      const std::size_t keep = kJournalCapacity / 2;
      floor_ = journal_[journal_.size() - keep - 1].first;
      journal_.erase(journal_.begin(),
                     journal_.end() - static_cast<std::ptrdiff_t>(keep));
    }
    journal_.emplace_back(version_, rec.id);
  }

  static constexpr std::size_t kJournalCapacity = 1 << 16;
  std::map<MachineId, MachineRecord> records_;
  std::map<std::string, MachineId> by_name_;
  MachineId next_id_ = 1;
  std::uint64_t version_ = 0;
  std::uint64_t floor_ = 0;
  std::vector<std::pair<std::uint64_t, MachineId>> journal_;
  std::map<MachineId, Tracked> monitor_;
  Rng rng_;
};

// Everything a reader can see of one record.
using RecordView = std::tuple<MachineId, std::string, std::uint64_t,
                              std::string, double, SimTime>;
RecordView View(const MachineRecord& rec) {
  return {rec.id, rec.Serialize(), rec.version, std::string(rec.taken_by.text()),
          rec.dyn.load, rec.dyn.last_update};
}

void ExpectSameWhitePages(const ResourceDatabase& db,
                          const MapWhitePages& model, Rng& probe,
                          const std::vector<std::string>& names) {
  ASSERT_EQ(db.version(), model.version());
  ASSERT_EQ(db.size(), model.records().size());
  std::vector<RecordView> walked, expected;
  std::vector<MachineId> up, expected_up;
  std::size_t free = 0;
  db.VisitAll([&](const MachineRecord& rec) { walked.push_back(View(rec)); });
  for (const auto& [id, rec] : model.records()) {
    expected.push_back(View(rec));
    if (rec.state == MachineState::kUp) expected_up.push_back(id);
    free += rec.taken_by.empty() && rec.IsUsable();
  }
  ASSERT_EQ(walked, expected);
  db.ListUp(&up);
  EXPECT_EQ(up, expected_up);
  EXPECT_EQ(db.free_count(), free);

  // The change feed at random cursors, the current one included.
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t since =
        k == 0 ? model.version() : probe.NextBounded(model.version() + 1);
    std::vector<MachineId> got{kInvalidMachine}, want{kInvalidMachine};
    const auto cursor = db.ChangesSince(since, &got);
    const auto want_cursor = model.ChangesSince(since, &want);
    ASSERT_EQ(cursor, want_cursor) << "since " << since;
    if (cursor) {
      EXPECT_EQ(got, want) << "since " << since;
    }
  }

  // Point lookups by id (present or not) and by name.
  for (int k = 0; k < 4; ++k) {
    const auto id = static_cast<MachineId>(probe.NextBounded(1100));
    const auto got = db.Get(id);
    const auto it = model.records().find(id);
    ASSERT_EQ(got.ok(), it != model.records().end()) << "id " << id;
    if (got.ok()) {
      EXPECT_EQ(View(*got), View(it->second));
    }
    const std::string& name = names[probe.NextBounded(names.size())];
    const auto by_name = db.GetByName(name);
    const auto want_id = model.IdOf(name);
    ASSERT_EQ(by_name.ok(), want_id.has_value()) << name;
    if (by_name.ok()) {
      EXPECT_EQ(View(*by_name), View(model.records().at(*want_id)));
    }
  }
}

// Seeded sequences of every mutation against the map model: auto and
// explicit sparse ids, state flips and renames, claims and releases,
// monitor sweeps and snapshot loads, then enough sweeps to trim the
// change journal so stale cursors get nullopt.
class WhitePagesOracle : public ::testing::TestWithParam<int> {};

TEST_P(WhitePagesOracle, FlatStoreMatchesMapModel) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 7919 + 1);
  Rng probe(seed);
  ResourceDatabase db;
  monitor::ResourceMonitor monitor(&db, monitor::MonitorConfig{},
                                   Rng(seed + 100));
  MapWhitePages model(seed + 100);
  const auto sun = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  ASSERT_TRUE(sun.ok());
  const std::vector<std::string> pools = {"poolA", "poolB", "poolC"};
  // Every name ever used, for lookups, and one never registered.
  std::vector<std::string> names = {"unknown.edu"};
  const MachineId sparse[] = {50, 3, 17, 1000, 4};
  SimTime now = 0;
  int fresh = 0;

  auto machine = [&](MachineId id) {
    MachineRecord rec = SampleMachine(
        "h" + std::to_string(rng.NextBounded(400)) + ".site" +
        std::to_string(seed) + ".edu");  // collisions are rejected
    rec.id = id;
    rec.state = rng.Bernoulli(0.2) ? MachineState::kDown : MachineState::kUp;
    rec.dyn.load = 0.25 * static_cast<double>(rng.NextBounded(8));
    rec.params.Set("arch", rng.Bernoulli(0.7) ? "sun" : "hp");
    names.push_back(rec.name);
    return rec;
  };
  auto any_id = [&] {
    return static_cast<MachineId>(rng.Bernoulli(0.2) ? rng.NextBounded(1100)
                                                     : 1 + rng.NextBounded(80));
  };

  for (int op = 0; op < 500; ++op) {
    const std::uint64_t kind = rng.NextBounded(100);
    if (kind < 30) {
      MachineRecord rec = machine(kInvalidMachine);
      EXPECT_EQ(db.Add(rec).ok(), model.Add(rec).has_value());
    } else if (kind < 38) {
      const MachineId id = rng.Bernoulli(0.6) ? sparse[rng.NextBounded(5)]
                                              : any_id();
      MachineRecord rec = machine(id == kInvalidMachine ? 1 : id);
      EXPECT_EQ(db.Add(rec).ok(), model.Add(rec).has_value());
    } else if (kind < 58) {
      const MachineId id = any_id();
      const auto state = static_cast<MachineState>(rng.NextBounded(3));
      const double load = rng.NextDouble();
      std::string rename;
      if (rng.Bernoulli(0.1)) {
        rename = "renamed" + std::to_string(fresh++) + ".edu";
        names.push_back(rename);
      }
      const auto mutate = [&](MachineRecord& rec) {
        rec.state = state;
        rec.dyn.load = load;
        if (!rename.empty()) rec.name = rename;
      };
      EXPECT_EQ(db.Update(id, mutate).ok(), model.Update(id, mutate));
    } else if (kind < 68) {
      const std::string& pool = pools[rng.NextBounded(pools.size())];
      const std::size_t limit = rng.NextBounded(6);
      EXPECT_EQ(db.ClaimMatching(*sun, pool, limit),
                model.Claim(*sun, Intern(pool), limit));
    } else if (kind < 76) {
      const MachineId id = any_id();
      const std::string& pool = pools[rng.NextBounded(pools.size())];
      EXPECT_EQ(db.Release(id, pool).ok(), model.Release(id, Intern(pool)));
    } else if (kind < 80) {
      const std::string& pool = pools[rng.NextBounded(pools.size())];
      EXPECT_EQ(db.ReleaseAllFrom(pool), model.ReleaseAllFrom(Intern(pool)));
    } else if (kind < 94) {
      now += Seconds(1.0 + static_cast<double>(rng.NextBounded(7)));
      EXPECT_EQ(monitor.Step(now), model.Sweep(now));
    } else {
      // A snapshot of fresh records with explicit ids, some of them
      // colliding or below ids already loaded; LoadFrom stops at the
      // first rejected record, having kept the ones before it.
      std::string text;
      for (std::uint64_t k = 0, n = 1 + rng.NextBounded(4); k < n; ++k) {
        text += machine(static_cast<MachineId>(1 + rng.NextBounded(1200)))
                    .Serialize() +
                "\n";
      }
      const bool ok = db.LoadFrom(text).ok();
      bool model_ok = true;
      for (std::size_t at = 0; model_ok && at < text.size();) {
        const std::size_t end = text.find('\n', at);
        auto rec = MachineRecord::Deserialize(text.substr(at, end - at));
        ASSERT_TRUE(rec.ok());
        model_ok = model.Add(std::move(*rec)).has_value();
        at = end + 1;
      }
      EXPECT_EQ(ok, model_ok);
    }
    ExpectSameWhitePages(db, model, probe, names);
    if (HasFatalFailure()) return;
    if (op % 50 == 0) {
      EXPECT_EQ(db.Serialize(), model.Serialize());
    }
  }

  // Sweep until the journal trims past the early cursors.
  const std::uint64_t early = model.version() / 2;
  while (model.version() < (std::uint64_t{1} << 17)) {
    now += Seconds(5.0);
    ASSERT_EQ(monitor.Step(now), model.Sweep(now));
  }
  std::vector<MachineId> dirty;
  EXPECT_FALSE(db.ChangesSince(early, &dirty).has_value());
  ExpectSameWhitePages(db, model, probe, names);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WhitePagesOracle, ::testing::Range(1, 7));

// --- shadow accounts ---

// --- change tracking (dirty-id refresh) ---

TEST(ResourceDatabase, VersionsAdvanceOnEveryMutation) {
  ResourceDatabase database;
  EXPECT_EQ(database.version(), 0u);
  auto id = database.Add(SampleMachine("host1"));
  ASSERT_TRUE(id.ok());
  const std::uint64_t after_add = database.version();
  EXPECT_GT(after_add, 0u);
  EXPECT_EQ(database.Get(*id)->version, after_add);

  ASSERT_TRUE(database.Update(*id, [](MachineRecord& rec) {
    rec.dyn = DynamicState{};
  }).ok());
  EXPECT_GT(database.version(), after_add);
  EXPECT_EQ(database.Get(*id)->version, database.version());
}

TEST(ResourceDatabase, ChangesSinceReportsOnlyDirtyIds) {
  ResourceDatabase database;
  std::vector<MachineId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(*database.Add(SampleMachine("m" + std::to_string(i))));
  }
  std::vector<MachineId> dirty;
  auto cursor = database.ChangesSince(0, &dirty);
  ASSERT_TRUE(cursor.has_value());
  EXPECT_EQ(dirty.size(), ids.size());  // adds are changes

  dirty.clear();
  cursor = database.ChangesSince(*cursor, &dirty);
  ASSERT_TRUE(cursor.has_value());
  EXPECT_TRUE(dirty.empty());  // quiescent database

  // Touch two machines (one of them twice); exactly those come back,
  // deduplicated and ascending.
  const auto touch = [](MachineRecord& rec) { rec.dyn.load += 0.5; };
  ASSERT_TRUE(database.Update(ids[5], touch).ok());
  ASSERT_TRUE(database.Update(ids[2], touch).ok());
  ASSERT_TRUE(database.Update(ids[5], touch).ok());
  dirty.clear();
  cursor = database.ChangesSince(*cursor, &dirty);
  ASSERT_TRUE(cursor.has_value());
  EXPECT_EQ(dirty, (std::vector<MachineId>{ids[2], ids[5]}));
}

TEST(ResourceDatabase, ChangesSinceCoversClaimAndRelease) {
  ResourceDatabase database;
  for (int i = 0; i < 4; ++i) {
    database.Add(SampleMachine("m" + std::to_string(i)));
  }
  std::vector<MachineId> dirty;
  const auto cursor = database.ChangesSince(0, &dirty);
  ASSERT_TRUE(cursor.has_value());

  auto q = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  ASSERT_TRUE(q.ok());
  const auto claimed = database.ClaimMatching(*q, "poolA");
  ASSERT_EQ(claimed.size(), 4u);
  dirty.clear();
  auto cursor2 = database.ChangesSince(*cursor, &dirty);
  ASSERT_TRUE(cursor2.has_value());
  EXPECT_EQ(dirty.size(), 4u);

  database.ReleaseAllFrom("poolA");
  dirty.clear();
  cursor2 = database.ChangesSince(*cursor2, &dirty);
  ASSERT_TRUE(cursor2.has_value());
  EXPECT_EQ(dirty.size(), 4u);
}

TEST(ResourceDatabase, StaleCursorSignalsFullRefresh) {
  ResourceDatabase database;
  auto id = database.Add(SampleMachine("host1"));
  ASSERT_TRUE(id.ok());
  // Overflow the journal so the floor moves past version 0.
  for (int i = 0; i < (1 << 16) + 100; ++i) {
    // Alternate two records: consecutive same-id updates coalesce into
    // one journal entry, so a single id would never trim.
    database.Add(SampleMachine("churn" + std::to_string(i)));
  }
  std::vector<MachineId> dirty;
  EXPECT_FALSE(database.ChangesSince(0, &dirty).has_value());
  // A fresh cursor works again.
  const auto cursor = database.ChangesSince(database.version(), &dirty);
  ASSERT_TRUE(cursor.has_value());
  EXPECT_EQ(*cursor, database.version());
}

// The monitor's sweep rewrites records in place: only the records `fn`
// reports rewritten get a version, stamped and journaled in ascending
// id order, and the others keep theirs.
TEST(ResourceDatabase, SweepDynamicRewritesInPlaceAndJournals) {
  ResourceDatabase database;
  std::vector<MachineId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(*database.Add(SampleMachine("m" + std::to_string(i))));
  }
  std::vector<MachineId> dirty;
  const auto cursor = database.ChangesSince(0, &dirty);
  ASSERT_TRUE(cursor.has_value());

  std::vector<MachineId> walked;
  database.SweepDynamic([&](const MachineRecord& rec, DynamicState& dyn) {
    walked.push_back(rec.id);
    if (rec.id != ids[1] && rec.id != ids[3]) return false;
    dyn.load = 2.25;
    EXPECT_DOUBLE_EQ(rec.dyn.load, 2.25);  // the record itself
    return true;
  });
  EXPECT_EQ(walked, ids);
  EXPECT_DOUBLE_EQ(database.Get(ids[1])->dyn.load, 2.25);
  EXPECT_DOUBLE_EQ(database.Get(ids[3])->dyn.load, 2.25);
  EXPECT_DOUBLE_EQ(database.Get(ids[2])->dyn.load, 0.4);
  EXPECT_EQ(database.Get(ids[1])->version, *cursor + 1);
  EXPECT_EQ(database.Get(ids[3])->version, *cursor + 2);
  EXPECT_EQ(database.Get(ids[2])->version, *cursor - 1);
  EXPECT_EQ(database.version(), *cursor + 2);

  dirty.clear();
  const auto cursor2 = database.ChangesSince(*cursor, &dirty);
  ASSERT_TRUE(cursor2.has_value());
  EXPECT_EQ(dirty, (std::vector<MachineId>{ids[1], ids[3]}));
}

TEST(ResourceDatabase, VisitAllSeesEveryRecordWithoutCopies) {
  ResourceDatabase database;
  for (int i = 0; i < 6; ++i) {
    database.Add(SampleMachine("m" + std::to_string(i)));
  }
  std::size_t seen = 0;
  database.VisitAll([&seen](const MachineRecord& rec) {
    EXPECT_NE(rec.id, kInvalidMachine);
    ++seen;
  });
  EXPECT_EQ(seen, 6u);
}

// The crash strike draws its victim by index into the walk's up-list,
// so the in-place walk must visit exactly what ForEach copies, in the
// same ascending id order, whatever order the ids were added in.
TEST(ResourceDatabase, VisitAllWalksWhatForEachCopies) {
  ResourceDatabase database;
  const MachineId added[] = {50, 3, 17, 1000, 4};
  for (const MachineId id : added) {
    MachineRecord rec = SampleMachine("m" + std::to_string(id));
    rec.id = id;
    ASSERT_EQ(*database.Add(std::move(rec)), id);
  }
  const auto flip_down = [](MachineRecord& rec) {
    rec.state = MachineState::kDown;
  };
  ASSERT_TRUE(database.Update(17, flip_down).ok());
  ASSERT_TRUE(database.Update(1000, flip_down).ok());
  const auto q = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(database.ClaimMatching(*q, "poolA", 2).size(), 2u);

  using Row = std::tuple<MachineId, MachineState, std::string, std::uint64_t>;
  std::vector<Row> visited;
  database.VisitAll([&visited](const MachineRecord& rec) {
    visited.emplace_back(rec.id, rec.state, rec.taken_by.text(), rec.version);
  });
  std::vector<Row> copied;
  database.ForEach([&copied](const MachineRecord& rec) {
    copied.emplace_back(rec.id, rec.state, rec.taken_by.text(), rec.version);
  });
  // Versions count the mutations: five adds, two flips, then the claim
  // of the two lowest up ids.
  const std::vector<Row> expected = {
      {3, MachineState::kUp, "poolA", 8},
      {4, MachineState::kUp, "poolA", 9},
      {17, MachineState::kDown, "", 6},
      {50, MachineState::kUp, "", 1},
      {1000, MachineState::kDown, "", 7}};
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(copied, expected);
}

TEST(ShadowAccountPool, AcquireReleaseCycle) {
  ShadowAccountPool pool(5000, 3);
  EXPECT_EQ(pool.total(), 3u);
  auto a = pool.Acquire("sess-a");
  auto b = pool.Acquire("sess-b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_TRUE(pool.Release(*a, "sess-a").ok());
  EXPECT_EQ(pool.free_count(), 2u);
}

TEST(ShadowAccountPool, ExhaustionAndWrongSession) {
  ShadowAccountPool pool(5000, 1);
  auto a = pool.Acquire("sess-a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(pool.Acquire("sess-b").status().code(), StatusCode::kExhausted);
  EXPECT_EQ(pool.Release(*a, "sess-b").code(), StatusCode::kPermissionDenied);
  EXPECT_FALSE(pool.Release(9999, "sess-a").ok());
  EXPECT_FALSE(pool.Acquire("").ok());
}

// Pools are lazy (first uid, size, records of the accounts handed out
// so far) yet hand out uids as a full account table did: lowest free
// first.
TEST(ShadowAccountPool, LazyPoolHandsOutTheLowestFreeUid) {
  ShadowAccountPool pool(5000, 3);
  EXPECT_EQ(pool.total(), 3u);
  EXPECT_EQ(pool.free_count(), 3u);
  EXPECT_EQ(*pool.Acquire("a"), 5000u);
  EXPECT_EQ(*pool.Acquire("b"), 5001u);
  EXPECT_EQ(*pool.Acquire("c"), 5002u);
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_EQ(pool.Acquire("d").status().code(), StatusCode::kExhausted);

  ASSERT_TRUE(pool.Release(5001, "b").ok());
  EXPECT_EQ(*pool.Acquire("d"), 5001u);  // the released uid is reused
  ASSERT_TRUE(pool.Release(5000, "a").ok());
  ASSERT_TRUE(pool.Release(5002, "c").ok());
  EXPECT_EQ(*pool.Acquire("e"), 5000u);  // lowest first
  EXPECT_EQ(pool.Release(5001, "e").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(pool.Release(5002, "e").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(pool.Release(4999, "e").code(), StatusCode::kNotFound);
  EXPECT_EQ(pool.Release(5003, "e").code(), StatusCode::kNotFound);
  EXPECT_EQ(pool.total(), 3u);
  EXPECT_EQ(pool.free_count(), 1u);

  ShadowAccountPool empty(7000, 0);
  EXPECT_EQ(empty.Acquire("a").status().code(), StatusCode::kExhausted);
}

TEST(ShadowAccountRegistry, GetOrCreateIsIdempotent) {
  ShadowAccountRegistry registry;
  auto& a = registry.GetOrCreate(Intern("shadow.m1"), 100, 4);
  auto& b = registry.GetOrCreate(Intern("shadow.m1"), 999, 99);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.total(), 4u);
  EXPECT_EQ(registry.Find(Intern("shadow.m1")), &a);
  EXPECT_EQ(registry.Find(Intern("missing")), nullptr);
}

// --- usage policies ---

TEST(UsagePolicy, ParseAndEvaluatePaperExample) {
  // "public users are only allowed to access this machine if its load is
  // below a specified threshold" (§4.1).
  auto policy = UsagePolicy::Parse("deny public if load >= 0.5; allow");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();

  MachineRecord rec = SampleMachine();
  rec.params.clear();
  rec.dyn.load = 0.7;
  EXPECT_FALSE(policy->Evaluate(rec, "public"));
  EXPECT_TRUE(policy->Evaluate(rec, "ece"));  // rule only matches public
  rec.dyn.load = 0.3;
  EXPECT_TRUE(policy->Evaluate(rec, "public"));
}

TEST(UsagePolicy, FirstMatchingRuleWins) {
  auto policy = UsagePolicy::Parse(
      "allow ece; deny * if load >= 1.0; allow");
  ASSERT_TRUE(policy.ok());
  MachineRecord rec = SampleMachine();
  rec.params.clear();
  rec.dyn.load = 2.0;
  EXPECT_TRUE(policy->Evaluate(rec, "ece"));    // first rule
  EXPECT_FALSE(policy->Evaluate(rec, "other")); // second rule
}

TEST(UsagePolicy, GroupGlobs) {
  auto policy = UsagePolicy::Parse("deny guest*");
  ASSERT_TRUE(policy.ok());
  MachineRecord rec = SampleMachine();
  EXPECT_FALSE(policy->Evaluate(rec, "guest42"));
  EXPECT_TRUE(policy->Evaluate(rec, "staff"));
}

TEST(UsagePolicy, MultipleConditionsAreConjunctive) {
  auto policy =
      UsagePolicy::Parse("deny * if load >= 0.5, memory <= 128");
  ASSERT_TRUE(policy.ok());
  MachineRecord rec = SampleMachine();
  rec.params.clear();
  rec.dyn.load = 0.9;
  rec.dyn.available_memory_mb = 64;
  EXPECT_FALSE(policy->Evaluate(rec, "x"));
  rec.dyn.available_memory_mb = 512;  // second condition fails -> rule skipped
  EXPECT_TRUE(policy->Evaluate(rec, "x"));
}

TEST(UsagePolicy, ParseErrors) {
  EXPECT_FALSE(UsagePolicy::Parse("").ok());
  EXPECT_FALSE(UsagePolicy::Parse("maybe public").ok());
  EXPECT_FALSE(UsagePolicy::Parse("deny * if load").ok());
}

TEST(PolicyRegistry, ResolvesByName) {
  PolicyRegistry registry;
  ASSERT_TRUE(registry.Register("public-load",
                                "deny public if load >= 0.5; allow")
                  .ok());
  MachineRecord rec = SampleMachine();
  rec.params.clear();
  rec.usage_policy = Intern("public-load");
  rec.dyn.load = 0.9;
  EXPECT_FALSE(registry.Allows(rec, "public"));
  EXPECT_TRUE(registry.Allows(rec, "ece"));

  rec.usage_policy = Intern("unregistered");
  EXPECT_TRUE(registry.Allows(rec, "public"));  // default open
  rec.usage_policy = Symbol();
  EXPECT_TRUE(registry.Allows(rec, "public"));
}

}  // namespace
}  // namespace actyp::db
