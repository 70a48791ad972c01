// Tests for the resource monitoring service and the local directory
// service.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "db/database.hpp"
#include "directory/directory.hpp"
#include "monitor/monitor.hpp"

namespace actyp {
namespace {

db::MachineRecord Machine(const std::string& name) {
  db::MachineRecord rec;
  rec.name = name;
  rec.dyn.available_memory_mb = 512;
  rec.dyn.available_swap_mb = 1024;
  rec.params["arch"] = "sun";
  return rec;
}

// --- monitor ---

TEST(Monitor, StepRefreshesDynamicFields) {
  db::ResourceDatabase database;
  auto id = database.Add(Machine("m0"));
  monitor::MonitorConfig config;
  config.update_period = Seconds(5);
  monitor::ResourceMonitor monitor(&database, config, Rng(1));

  monitor.Step(Seconds(10));
  auto rec = database.Get(*id);
  EXPECT_EQ(rec->dyn.last_update, Seconds(10));
  EXPECT_GE(rec->dyn.load, 0.0);
}

TEST(Monitor, RespectsUpdatePeriod) {
  db::ResourceDatabase database;
  auto id = database.Add(Machine("m0"));
  monitor::MonitorConfig config;
  config.update_period = Seconds(5);
  monitor::ResourceMonitor monitor(&database, config, Rng(1));

  monitor.Step(Seconds(10));
  const SimTime first = database.Get(*id)->dyn.last_update;
  monitor.Step(Seconds(12));  // < period since last update
  EXPECT_EQ(database.Get(*id)->dyn.last_update, first);
  monitor.Step(Seconds(16));
  EXPECT_GT(database.Get(*id)->dyn.last_update, first);
}

TEST(Monitor, LoadStaysNonNegativeOverLongRun) {
  db::ResourceDatabase database;
  auto id = database.Add(Machine("m0"));
  monitor::ResourceMonitor monitor(&database, monitor::MonitorConfig{},
                                   Rng(7));
  for (int step = 1; step <= 200; ++step) {
    monitor.Step(Seconds(5.0 * step));
    EXPECT_GE(database.Get(*id)->dyn.load, 0.0);
  }
}

TEST(Monitor, LoadRevertsTowardMean) {
  db::ResourceDatabase database;
  std::vector<db::MachineId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(*database.Add(Machine("m" + std::to_string(i))));
  }
  monitor::MonitorConfig config;
  config.background_load_mean = 0.25;
  monitor::ResourceMonitor monitor(&database, config, Rng(3));
  for (int step = 1; step <= 100; ++step) monitor.Step(Seconds(5.0 * step));

  double total = 0;
  for (auto id : ids) total += database.Get(id)->dyn.load;
  EXPECT_NEAR(total / 50.0, 0.25, 0.15);
}

TEST(Monitor, JobStartEndAdjustsLoadAndMemory) {
  db::ResourceDatabase database;
  auto id = database.Add(Machine("m0"));
  monitor::MonitorConfig config;
  monitor::ResourceMonitor monitor(&database, config, Rng(2));
  monitor.Step(Seconds(10));

  const auto before = database.Get(*id).value();
  monitor.OnJobStart(*id);
  auto during = database.Get(*id).value();
  EXPECT_NEAR(during.dyn.load, before.dyn.load + config.job_load, 1e-9);
  EXPECT_NEAR(during.dyn.available_memory_mb,
              before.dyn.available_memory_mb - config.job_memory_mb, 1e-9);
  EXPECT_EQ(during.dyn.active_jobs, before.dyn.active_jobs + 1);
  EXPECT_EQ(monitor.active_jobs(*id), 1);

  monitor.OnJobEnd(*id);
  auto after = database.Get(*id).value();
  EXPECT_NEAR(after.dyn.load, before.dyn.load, 1e-9);
  EXPECT_EQ(monitor.active_jobs(*id), 0);
}

TEST(Monitor, StepMarksOnlyRewrittenMachinesDirty) {
  db::ResourceDatabase database;
  std::vector<db::MachineId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(*database.Add(Machine("m" + std::to_string(i))));
  }
  monitor::MonitorConfig config;
  config.update_period = Seconds(5);
  monitor::ResourceMonitor monitor(&database, config, Rng(11));

  // First sweep rewrites everything (all records are period-stale).
  monitor.Step(Seconds(10));
  std::vector<db::MachineId> dirty;
  auto cursor = database.ChangesSince(0, &dirty);
  ASSERT_TRUE(cursor.has_value());

  // A sweep inside the update period rewrites nothing: no machine may
  // gain a version bump, so pool refreshes see zero dirty ids.
  monitor.Step(Seconds(12));
  dirty.clear();
  cursor = database.ChangesSince(*cursor, &dirty);
  ASSERT_TRUE(cursor.has_value());
  EXPECT_TRUE(dirty.empty());

  // Past the period, the sweep rewrites the whole (due) fleet again.
  monitor.Step(Seconds(16));
  dirty.clear();
  cursor = database.ChangesSince(*cursor, &dirty);
  ASSERT_TRUE(cursor.has_value());
  EXPECT_EQ(dirty.size(), ids.size());
}

TEST(Monitor, JobLoadPersistsAcrossSweeps) {
  db::ResourceDatabase database;
  auto id = database.Add(Machine("m0"));
  monitor::MonitorConfig config;
  monitor::ResourceMonitor monitor(&database, config, Rng(2));
  monitor.Step(Seconds(10));
  monitor.OnJobStart(*id);
  monitor.Step(Seconds(20));
  EXPECT_GE(database.Get(*id)->dyn.load, config.job_load);
  EXPECT_EQ(database.Get(*id)->dyn.active_jobs, 1);
}

// --- directory ---

TEST(Directory, RegisterLookupUnregister) {
  directory::DirectoryService dir;
  directory::PoolInstance inst;
  inst.pool_name = "arch,==/sun";
  inst.instance = 0;
  inst.address = "pool.alpha.0";
  inst.machine_count = 800;
  ASSERT_TRUE(dir.RegisterPool(inst).ok());
  EXPECT_FALSE(dir.RegisterPool(inst).ok());  // duplicate instance

  auto found = dir.Lookup("arch,==/sun");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].address, "pool.alpha.0");
  EXPECT_TRUE(dir.Lookup("missing").empty());

  ASSERT_TRUE(dir.UnregisterPool("arch,==/sun", 0).ok());
  EXPECT_TRUE(dir.Lookup("arch,==/sun").empty());
  EXPECT_FALSE(dir.UnregisterPool("arch,==/sun", 0).ok());
}

TEST(Directory, MultipleInstancesAndRandomPick) {
  directory::DirectoryService dir;
  for (std::uint32_t i = 0; i < 4; ++i) {
    directory::PoolInstance inst;
    inst.pool_name = "p";
    inst.instance = i;
    inst.address = "pool." + std::to_string(i);
    ASSERT_TRUE(dir.RegisterPool(inst).ok());
  }
  EXPECT_EQ(dir.Lookup("p").size(), 4u);
  EXPECT_EQ(dir.pool_count(), 4u);

  Rng rng(5);
  std::set<std::string> picked;
  for (int i = 0; i < 200; ++i) {
    auto inst = dir.PickRandom("p", rng);
    ASSERT_TRUE(inst.has_value());
    picked.insert(inst->address);
  }
  EXPECT_EQ(picked.size(), 4u);  // all instances get traffic
  EXPECT_FALSE(dir.PickRandom("missing", rng).has_value());
}

TEST(Directory, PoolNamesSorted) {
  directory::DirectoryService dir;
  for (const char* name : {"b", "a", "c"}) {
    directory::PoolInstance inst;
    inst.pool_name = name;
    inst.instance = 0;
    inst.address = name;
    dir.RegisterPool(inst);
  }
  EXPECT_EQ(dir.PoolNames(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Directory, PoolManagerPeers) {
  directory::DirectoryService dir;
  for (int i = 0; i < 3; ++i) {
    directory::PoolManagerEntry entry;
    entry.name = "pm" + std::to_string(i);
    entry.address = "addr" + std::to_string(i);
    ASSERT_TRUE(dir.RegisterPoolManager(entry).ok());
  }
  EXPECT_FALSE(dir.RegisterPoolManager({"pm0", "x", ""}).ok());
  EXPECT_EQ(dir.PoolManagers().size(), 3u);

  auto peers = dir.PoolManagersExcluding({"pm0", "pm2"});
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].name, "pm1");

  ASSERT_TRUE(dir.UnregisterPoolManager("pm1").ok());
  EXPECT_TRUE(dir.PoolManagersExcluding({"pm0", "pm2"}).empty());
}

// A crashed pool manager leaves its entry behind; the restarted one
// registers the same entry again and must not be refused.
TEST(Directory, ReRegisteringAnIdenticalPoolManagerIsANoOp) {
  directory::DirectoryService dir;
  const directory::PoolManagerEntry entry{"pm0", "pm0-addr", "purdue"};
  ASSERT_TRUE(dir.RegisterPoolManager(entry).ok());
  EXPECT_TRUE(dir.RegisterPoolManager(entry).ok());

  // Any field that differs is still a conflict, and the first entry
  // stays.
  EXPECT_EQ(dir.RegisterPoolManager({"pm0", "other-addr", "purdue"}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(dir.RegisterPoolManager({"pm0", "pm0-addr", "other"}).code(),
            StatusCode::kAlreadyExists);
  const auto managers = dir.PoolManagers();
  ASSERT_EQ(managers.size(), 1u);
  EXPECT_EQ(managers[0].address, "pm0-addr");
  EXPECT_EQ(managers[0].domain, "purdue");
}

TEST(Directory, RejectsEmptyNames) {
  directory::DirectoryService dir;
  directory::PoolInstance inst;
  EXPECT_FALSE(dir.RegisterPool(inst).ok());
  directory::PoolManagerEntry entry;
  EXPECT_FALSE(dir.RegisterPoolManager(entry).ok());
}

}  // namespace
}  // namespace actyp
