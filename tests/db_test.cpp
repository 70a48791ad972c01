// Tests for the white-pages database: Fig. 3 record fields, attribute
// resolution, serialization, claim/release (taken marking), shadow
// accounts, and usage policies.
#include <gtest/gtest.h>

#include <thread>
#include <tuple>

#include "common/rng.hpp"
#include "db/database.hpp"
#include "db/machine.hpp"
#include "db/policy.hpp"
#include "db/shadow.hpp"
#include "query/parser.hpp"

namespace actyp::db {
namespace {

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
  rec.object_path = "/etc/punch/machines/ece1";
  rec.shared_account = "nobody";
  rec.execution_unit_port = 7001;
  rec.pvfs_mount_port = 7002;
  rec.user_groups = {"ece", "public"};
  rec.tool_groups = {"simulation"};
  rec.shadow_pool = "shadow.ece1";
  rec.usage_policy = "public-load";
  rec.params = {{"arch", "sun"}, {"memory", "512"}, {"domain", "purdue"},
                {"license", "tsuprem4"}};
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
  rec.params.erase("memory");
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
    rec.params["k" + std::to_string(i)] = "v" + std::to_string(rng.Next() % 97);
    rec.user_groups.push_back("g" + std::to_string(i));
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
                    rec.params["arch"] = "hp";
                  })
                  .ok());
  auto rec = database.Get(*id);
  EXPECT_DOUBLE_EQ(rec->dyn.load, 3.5);
  EXPECT_EQ(rec->params.at("arch"), "hp");
}

TEST(ResourceDatabase, ClaimMatchingMarksTaken) {
  ResourceDatabase database;
  for (int i = 0; i < 10; ++i) {
    MachineRecord rec = SampleMachine("m" + std::to_string(i));
    rec.params["arch"] = i < 6 ? "sun" : "hp";
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

  ASSERT_TRUE(database.UpdateDynamic(*id, DynamicState{}).ok());
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
  ASSERT_TRUE(database.UpdateDynamic(ids[5], DynamicState{}).ok());
  ASSERT_TRUE(database.UpdateDynamic(ids[2], DynamicState{}).ok());
  ASSERT_TRUE(database.UpdateDynamic(ids[5], DynamicState{}).ok());
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

TEST(ResourceDatabase, ApplyDynamicBatchesAndJournals) {
  ResourceDatabase database;
  std::vector<MachineId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(*database.Add(SampleMachine("m" + std::to_string(i))));
  }
  std::vector<MachineId> dirty;
  const auto cursor = database.ChangesSince(0, &dirty);
  ASSERT_TRUE(cursor.has_value());

  DynamicState dyn;
  dyn.load = 2.25;
  database.ApplyDynamic({{ids[1], dyn}, {ids[3], dyn}, {9999, dyn}});
  EXPECT_DOUBLE_EQ(database.Get(ids[1])->dyn.load, 2.25);
  EXPECT_DOUBLE_EQ(database.Get(ids[3])->dyn.load, 2.25);

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
    visited.emplace_back(rec.id, rec.state, rec.taken_by, rec.version);
  });
  std::vector<Row> copied;
  database.ForEach([&copied](const MachineRecord& rec) {
    copied.emplace_back(rec.id, rec.state, rec.taken_by, rec.version);
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

TEST(ShadowAccountPool, ReleaseSessionCleansUp) {
  ShadowAccountPool pool(5000, 4);
  pool.Acquire("crashed");
  pool.Acquire("crashed");
  pool.Acquire("alive");
  EXPECT_EQ(pool.ReleaseSession("crashed"), 2u);
  EXPECT_EQ(pool.free_count(), 3u);
}

TEST(ShadowAccountRegistry, GetOrCreateIsIdempotent) {
  ShadowAccountRegistry registry;
  auto& a = registry.GetOrCreate("shadow.m1", 100, 4);
  auto& b = registry.GetOrCreate("shadow.m1", 999, 99);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.total(), 4u);
  EXPECT_EQ(registry.Find("shadow.m1"), &a);
  EXPECT_EQ(registry.Find("missing"), nullptr);
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
  rec.usage_policy = "public-load";
  rec.dyn.load = 0.9;
  EXPECT_FALSE(registry.Allows(rec, "public"));
  EXPECT_TRUE(registry.Allows(rec, "ece"));

  rec.usage_policy = "unregistered";
  EXPECT_TRUE(registry.Allows(rec, "public"));  // default open
  rec.usage_policy.clear();
  EXPECT_TRUE(registry.Allows(rec, "public"));
}

}  // namespace
}  // namespace actyp::db
