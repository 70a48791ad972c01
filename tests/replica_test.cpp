// Replicated-directory subsystem tests: anti-entropy equivalence against
// the authoritative DirectoryService, LWW convergence independent of op
// delivery order, partition-divergence-then-heal convergence bounds,
// the bounded-journal full-sync fallback (as a merge, never a wipe),
// crash/restore with warming and failover, the full wan_partition_heal
// scenario's convergence acceptance, and fixed-seed byte-identical
// replay with replication on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "actyp/scenario.hpp"
#include "actyp/scenario_registry.hpp"
#include "directory/directory.hpp"
#include "replica/group.hpp"
#include "replica/replica.hpp"
#include "simnet/kernel.hpp"

namespace actyp {
namespace {

using replica::DirectoryReplica;
using replica::ReplicaGroup;
using replica::ReplicaGroupConfig;
using replica::ReplicaHandle;

directory::PoolInstance MakeInstance(const std::string& name,
                                     std::uint32_t instance,
                                     const std::string& address) {
  directory::PoolInstance out;
  out.pool_name = name;
  out.instance = instance;
  out.address = address;
  out.machine_count = 10 + instance;
  return out;
}

// A group of two replicas on one kernel, with a switchable "partition"
// between their sites.
struct TestGroup {
  explicit TestGroup(std::size_t journal_capacity = 4096,
                     SimDuration sync_period = Millis(100)) {
    ReplicaGroupConfig config;
    config.sync_period = sync_period;
    config.journal_capacity = journal_capacity;
    config.seed = 7;
    group = std::make_unique<ReplicaGroup>(&kernel, config);
    group->AddReplica("east");
    group->AddReplica("west");
    group->SetReachability([this](const std::string&, const std::string&) {
      return !partitioned;
    });
    group->Start();
  }

  simnet::SimKernel kernel;
  std::unique_ptr<ReplicaGroup> group;
  bool partitioned = false;
};

TEST(Replica, AntiEntropyMatchesAuthoritativeDirectory) {
  TestGroup tg;
  directory::DirectoryService authoritative;

  // The same operation sequence against the authoritative service and
  // against replica 0 of the group.
  const auto drive = [](directory::DirectoryApi* dir) {
    ASSERT_TRUE(dir->RegisterPool(MakeInstance("pool/a", 0, "addr0")).ok());
    ASSERT_TRUE(dir->RegisterPool(MakeInstance("pool/a", 1, "addr1")).ok());
    ASSERT_TRUE(dir->RegisterPool(MakeInstance("pool/b", 0, "addr2")).ok());
    ASSERT_TRUE(
        dir->RegisterPoolManager({"pm0", "pm0-addr", "domain"}).ok());
    ASSERT_TRUE(
        dir->RegisterPoolManager({"pm1", "pm1-addr", "domain"}).ok());
    ASSERT_TRUE(dir->UnregisterPool("pool/a", 1).ok());
    ASSERT_TRUE(dir->UnregisterPoolManager("pm1").ok());
  };
  drive(&authoritative);
  drive(tg.group->replica(0));

  // Quiesce: a few sync periods so replica 1 pulls everything.
  tg.kernel.RunUntil(Millis(500));

  for (DirectoryReplica* replica :
       {tg.group->replica(0), tg.group->replica(1)}) {
    const auto a = replica->Lookup("pool/a");
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].address, "addr0");
    EXPECT_EQ(replica->Lookup("pool/b").size(), 1u);
    EXPECT_EQ(replica->pool_count(), authoritative.pool_count());
    EXPECT_EQ(replica->PoolNames(), authoritative.PoolNames());
    const auto pms = replica->PoolManagers();
    ASSERT_EQ(pms.size(), 1u);
    EXPECT_EQ(pms[0].name, "pm0");
  }
  EXPECT_EQ(tg.group->replica(0)->StateDigest(),
            tg.group->replica(1)->StateDigest());
  EXPECT_TRUE(tg.group->Converged());
}

TEST(Replica, LwwMergeIsOrderIndependent) {
  // Two replicas receive each other's ops in opposite orders; the LWW
  // stamp (with origin tiebreak) must produce identical winners.
  DirectoryReplica a({0, "east", 4096});
  DirectoryReplica b({1, "west", 4096});
  ASSERT_TRUE(a.RegisterPool(MakeInstance("pool/x", 0, "from-a")).ok());
  ASSERT_TRUE(b.RegisterPool(MakeInstance("pool/x", 0, "from-b")).ok());
  ASSERT_TRUE(b.RegisterPool(MakeInstance("pool/y", 0, "only-b")).ok());

  std::vector<replica::Op> from_a, from_b;
  ASSERT_TRUE(a.DeltaSince(b.version_vector(), &from_a));
  ASSERT_TRUE(b.DeltaSince(a.version_vector(), &from_b));
  a.ApplyOps(from_b);
  b.ApplyOps(from_a);

  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  // Equal stamps break toward the higher origin: replica 1's write wins.
  const auto x = a.Lookup("pool/x");
  ASSERT_EQ(x.size(), 1u);
  EXPECT_EQ(x[0].address, "from-b");
}

TEST(Replica, PartitionDivergenceThenHealConverges) {
  TestGroup tg;
  ASSERT_TRUE(
      tg.group->replica(0)->RegisterPool(MakeInstance("pool/a", 0, "a0")).ok());
  tg.kernel.RunUntil(Millis(300));
  ASSERT_TRUE(tg.group->Converged());

  // Partition, then writes on both sides.
  tg.partitioned = true;
  ReplicaHandle east(tg.group.get(), "east");
  ReplicaHandle west(tg.group.get(), "west");
  ASSERT_TRUE(east.RegisterPool(MakeInstance("pool/east", 0, "e0")).ok());
  ASSERT_TRUE(west.RegisterPool(MakeInstance("pool/west", 0, "w0")).ok());
  ASSERT_TRUE(west.UnregisterPool("pool/a", 0).ok());
  tg.kernel.RunUntil(Millis(800));
  EXPECT_FALSE(tg.group->Converged());
  EXPECT_GT(tg.group->stats().sync_skipped, 0u);

  // Heal: both replicas must reach identical record sets within a
  // bounded number of sync periods (one pull in each direction).
  tg.partitioned = false;
  tg.group->NoteDisruption();
  tg.kernel.RunUntil(Millis(800) + 3 * Millis(100));
  EXPECT_TRUE(tg.group->Converged());
  EXPECT_EQ(tg.group->replica(0)->StateDigest(),
            tg.group->replica(1)->StateDigest());
  EXPECT_EQ(tg.group->stats().convergences, 1u);
  EXPECT_LE(tg.group->stats().converge_time_s, 0.3);
  // The partition-side unregister propagated: pool/a is gone everywhere.
  EXPECT_TRUE(tg.group->replica(0)->Lookup("pool/a").empty());
  EXPECT_EQ(tg.group->replica(0)->Lookup("pool/east").size(), 1u);
  EXPECT_EQ(tg.group->replica(0)->Lookup("pool/west").size(), 1u);
}

TEST(Replica, BoundedJournalFallsBackToFullStateMerge) {
  // Journal of 8 ops; 60 writes on one side while the peer is cut off.
  TestGroup tg(/*journal_capacity=*/8);
  ASSERT_TRUE(
      tg.group->replica(1)->RegisterPool(MakeInstance("pool/w", 0, "w")).ok());
  tg.kernel.RunUntil(Millis(300));
  ASSERT_TRUE(tg.group->Converged());

  tg.partitioned = true;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(tg.group->replica(0)
                    ->RegisterPool(MakeInstance("pool/a", 0, "gen"))
                    .ok());
    ASSERT_TRUE(tg.group->replica(0)->UnregisterPool("pool/a", 0).ok());
  }
  ASSERT_TRUE(
      tg.group->replica(0)->RegisterPool(MakeInstance("pool/e", 0, "e")).ok());
  tg.kernel.RunUntil(Millis(600));

  tg.partitioned = false;
  tg.kernel.RunUntil(Millis(1000));
  EXPECT_GT(tg.group->stats().full_syncs, 0u);
  EXPECT_TRUE(tg.group->Converged());
  // The merge kept what only the stale side knew (pool/w) alongside the
  // journal-overflowed history (pool/e live, pool/a tombstoned).
  for (DirectoryReplica* replica :
       {tg.group->replica(0), tg.group->replica(1)}) {
    EXPECT_EQ(replica->Lookup("pool/w").size(), 1u);
    EXPECT_EQ(replica->Lookup("pool/e").size(), 1u);
    EXPECT_TRUE(replica->Lookup("pool/a").empty());
  }
}

TEST(Replica, CrashRestoreWarmingAndFailover) {
  TestGroup tg;
  ReplicaHandle east(tg.group.get(), "east");
  ASSERT_TRUE(east.RegisterPool(MakeInstance("pool/a", 0, "a0")).ok());
  tg.kernel.RunUntil(Millis(300));
  ASSERT_TRUE(tg.group->Converged());

  // Crash the east replica: its state is gone, and the east handle must
  // fail over to the west replica for both reads and writes.
  tg.group->Crash(0);
  EXPECT_FALSE(tg.group->alive(0));
  const auto before = tg.group->stats().failovers;
  EXPECT_EQ(east.Lookup("pool/a").size(), 1u);  // served by replica 1
  ASSERT_TRUE(east.RegisterPool(MakeInstance("pool/b", 0, "b0")).ok());
  EXPECT_GT(tg.group->stats().failovers, before);

  // Restore: warming until the first pull, then serving a full copy.
  tg.group->Restore(0);
  EXPECT_TRUE(tg.group->alive(0));
  // Still warming: the east handle keeps failing over.
  EXPECT_EQ(tg.group->replica(0)->pool_count(), 0u);
  EXPECT_EQ(east.Lookup("pool/b").size(), 1u);
  tg.kernel.RunUntil(tg.kernel.Now() + Millis(300));
  EXPECT_TRUE(tg.group->Converged());
  EXPECT_EQ(tg.group->replica(0)->Lookup("pool/a").size(), 1u);
  EXPECT_EQ(tg.group->replica(0)->Lookup("pool/b").size(), 1u);
  EXPECT_GE(tg.group->stats().restores, 1u);
}

// Builds the wan_partition_heal partition regime directly: partition +
// pool churn during the cut, writes on both sides, heal, convergence.
ScenarioConfig PartitionHealConfig(double ts, std::uint32_t replicas) {
  ScenarioConfig config;
  config.machines = 120;
  config.clusters = 2;
  config.clients = 4;
  config.wan = true;
  config.pool_replicas = 2;
  config.query_managers = 2;
  config.pool_managers = 2;
  config.directory_replicas = replicas;
  config.directory_sync_period = Seconds(0.35 * ts);
  config.client_request_timeout = Seconds(2.0 * ts);
  config.retry_max = 2;
  config.retry_backoff = Seconds(0.25 * ts);
  const std::string plan_text =
      "partition start=" + std::to_string(6.0 * ts) +
      " end=" + std::to_string(12.0 * ts) + " site_a=purdue site_b=upc\n" +
      "churn start=" + std::to_string(6.0 * ts) +
      " end=" + std::to_string(12.0 * ts) +
      " rate=" + std::to_string(1.0 / ts) +
      " downtime=" + std::to_string(1.5 * ts) + " target=pool.*\n";
  config.fault_plan = fault::FaultPlan::Parse(plan_text).value();
  config.seed = 20010611;
  return config;
}

TEST(Replica, WanPartitionHealScenarioConverges) {
  const double ts = 0.1;
  SimScenario scenario(PartitionHealConfig(ts, 2));
  ASSERT_TRUE(scenario.fault_status().ok());
  scenario.Measure(Seconds(3.0 * ts), Seconds(15.0 * ts));

  ReplicaGroup* group = scenario.replica_group();
  ASSERT_NE(group, nullptr);
  // Acceptance: both replicas hold identical record sets a bounded
  // sim-time after the heal (here: within the remaining measure window,
  // with the measured reconciliation delay itself under 10 scaled
  // seconds of the heal).
  EXPECT_TRUE(group->Converged());
  EXPECT_EQ(group->replica(0)->StateDigest(),
            group->replica(1)->StateDigest());
  EXPECT_GE(group->stats().convergences, 1u);
  EXPECT_LE(group->stats().converge_time_s, 10.0 * ts);
  EXPECT_GT(group->stats().sync_bytes, 0u);
  // The partition cut the replicas off from each other for its whole
  // duration: anti-entropy had to skip rounds.
  EXPECT_GT(group->stats().sync_skipped, 0u);
}

TEST(Replica, ScenarioDeterministicReplayWithReplication) {
  // Fixed seed + replication on => byte-identical kernel-visible state.
  const auto run = [] {
    const double ts = 0.1;
    SimScenario scenario(PartitionHealConfig(ts, 2));
    scenario.Measure(Seconds(3.0 * ts), Seconds(15.0 * ts));
    std::ostringstream out;
    out << scenario.collector().completed() << '/'
        << scenario.collector().failures() << '/'
        << scenario.kernel().executed() << '/'
        << scenario.replica_stats().sync_bytes << '/'
        << scenario.replica_stats().ops_pulled << '\n'
        << scenario.replica_group()->replica(0)->StateDigest()
        << scenario.replica_group()->replica(1)->StateDigest();
    return out.str();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Replica, DriverReplicasOneIsByteIdenticalToSeedPath) {
  // --replicas 1 must leave every scenario byte-identical to a run that
  // never mentions replication: the flag routes through the identical
  // single-authoritative-directory code path.
  const ScenarioInfo* info =
      ScenarioRegistry::Instance().Find("directory_failover");
  ASSERT_NE(info, nullptr);
  ScenarioRunOptions base;
  base.machines = 120;
  base.clients = 3;
  base.time_scale = 0.1;
  base.seed = 5;
  ScenarioRunOptions pinned = base;
  pinned.replicas = 1;

  const auto render = [&](const ScenarioRunOptions& options) {
    std::ostringstream out;
    WriteReportJson(info->run(options), out);
    return out.str();
  };
  // The sweep collapses to the replicas=1 regime under the pin; compare
  // that regime's cell between the two runs.
  const std::string with_flag = render(pinned);
  const std::string without_flag = render(base);
  EXPECT_FALSE(with_flag.empty());
  // The pinned run keeps only the seed cell; it must appear verbatim in
  // the unpinned run's output.
  const auto cell_start = with_flag.find("\"regime\":\"seed\"");
  const auto cell_end = with_flag.find('}', cell_start);
  ASSERT_NE(cell_start, std::string::npos);
  EXPECT_NE(without_flag.find(with_flag.substr(cell_start,
                                               cell_end - cell_start)),
            std::string::npos);
}

TEST(Replica, TombstoneGcPrunesOnceEveryoneHasApplied) {
  TestGroup tg;
  ASSERT_TRUE(
      tg.group->replica(0)->RegisterPool(MakeInstance("pool/a", 0, "a0")).ok());
  ASSERT_TRUE(
      tg.group->replica(0)->RegisterPool(MakeInstance("pool/b", 0, "b0")).ok());
  ASSERT_TRUE(tg.group->replica(0)->UnregisterPool("pool/a", 0).ok());

  // Before any sync, only replica 0 knows the delete: the tombstone is
  // not coverable by the group minimum and must survive.
  EXPECT_EQ(tg.group->replica(0)->tombstone_count(), 1u);

  // A few sync periods: replica 1 applies the delete, the group floor
  // rises over the tombstone's (origin, seq), and the next tick's GC
  // drops it from both replicas.
  tg.kernel.RunUntil(Millis(500));
  EXPECT_EQ(tg.group->replica(0)->tombstone_count(), 0u);
  EXPECT_EQ(tg.group->replica(1)->tombstone_count(), 0u);
  EXPECT_GE(tg.group->stats().tombstones_gc, 2u);

  // The deletion itself held: the pruned key stays gone, the live pool
  // stays served, and the replicas still agree byte-for-byte.
  EXPECT_TRUE(tg.group->replica(0)->Lookup("pool/a").empty());
  EXPECT_TRUE(tg.group->replica(1)->Lookup("pool/a").empty());
  EXPECT_EQ(tg.group->replica(1)->Lookup("pool/b").size(), 1u);
  EXPECT_EQ(tg.group->replica(0)->StateDigest(),
            tg.group->replica(1)->StateDigest());
}

TEST(Replica, WarmingReplicaBlocksTombstoneGc) {
  TestGroup tg;
  ASSERT_TRUE(
      tg.group->replica(0)->RegisterPool(MakeInstance("pool/a", 0, "a0")).ok());
  tg.kernel.RunUntil(Millis(300));

  // Crash replica 1, then delete while it is down: after the restore
  // the replica warms empty, and until its first successful pull the
  // group must keep the tombstone (the min vector cannot cover it).
  tg.group->Crash(1);
  ASSERT_TRUE(tg.group->replica(0)->UnregisterPool("pool/a", 0).ok());
  tg.group->Restore(1);
  EXPECT_EQ(tg.group->replica(0)->tombstone_count(), 1u);

  // Once the restored replica has pulled, GC resumes and prunes.
  tg.kernel.RunUntil(Millis(900));
  EXPECT_EQ(tg.group->replica(0)->tombstone_count(), 0u);
  EXPECT_TRUE(tg.group->replica(1)->Lookup("pool/a").empty());
  EXPECT_TRUE(tg.group->Converged());
}

}  // namespace
}  // namespace actyp
