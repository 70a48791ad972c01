// System-level tests on the full assembled deployment (SimScenario):
// these assert the qualitative properties behind the paper's figures —
// more pools help, splitting helps, replication helps, WAN adds an RTT
// floor — at reduced scale so the suite stays fast.
#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>

#include "actyp/scenario.hpp"

namespace actyp {
namespace {

double MeanResponse(ScenarioConfig config, SimDuration warmup = Seconds(5),
                    SimDuration measure = Seconds(40)) {
  SimScenario scenario(std::move(config));
  scenario.Measure(warmup, measure);
  EXPECT_GT(scenario.collector().completed(), 0u);
  return scenario.collector().response_stats().mean();
}

ScenarioConfig BaseConfig() {
  ScenarioConfig config;
  config.machines = 800;
  config.clusters = 1;
  config.clients = 8;
  config.seed = 99;
  return config;
}

TEST(Scenario, EndToEndCompletesWithoutFailures) {
  ScenarioConfig config = BaseConfig();
  SimScenario scenario(config);
  scenario.Measure(Seconds(5), Seconds(30));
  EXPECT_GT(scenario.collector().completed(), 100u);
  EXPECT_EQ(scenario.collector().failures(), 0u);
  const auto pool_stats = scenario.TotalPoolStats();
  EXPECT_GT(pool_stats.allocations, 0u);
  EXPECT_EQ(scenario.network().dropped_messages(), 0u);
}

TEST(Scenario, AllocationsEventuallyReleased) {
  ScenarioConfig config = BaseConfig();
  config.clients = 4;
  SimScenario scenario(config);
  scenario.RunUntil(Seconds(30));
  const auto stats = scenario.TotalPoolStats();
  // Zero-duration jobs: releases track allocations closely (a few may be
  // in flight at the horizon).
  EXPECT_GE(stats.releases + 8, stats.allocations);
  EXPECT_GT(stats.releases, 0u);
}

TEST(Scenario, MorePoolsReduceResponseTime) {
  // Fig. 4's effect at reduced scale: 1 pool vs 8 pools, same machines.
  ScenarioConfig one = BaseConfig();
  one.machines = 1600;
  one.clusters = 1;
  one.clients = 16;

  ScenarioConfig eight = one;
  eight.clusters = 8;

  const double r1 = MeanResponse(one);
  const double r8 = MeanResponse(eight);
  EXPECT_LT(r8, r1 * 0.5) << "r1=" << r1 << " r8=" << r8;
}

TEST(Scenario, ResponseGrowsWithClients) {
  // Fig. 6's effect: closed-loop clients on a single pool.
  ScenarioConfig few = BaseConfig();
  few.clients = 2;
  ScenarioConfig many = BaseConfig();
  many.clients = 24;
  const double r_few = MeanResponse(few);
  const double r_many = MeanResponse(many);
  EXPECT_GT(r_many, r_few * 2) << "few=" << r_few << " many=" << r_many;
}

TEST(Scenario, ResponseGrowsWithPoolSize) {
  // Fig. 6: the linear search makes bigger pools slower per query.
  ScenarioConfig small = BaseConfig();
  small.machines = 400;
  ScenarioConfig large = BaseConfig();
  large.machines = 3200;
  const double r_small = MeanResponse(small);
  const double r_large = MeanResponse(large);
  EXPECT_GT(r_large, r_small * 2)
      << "small=" << r_small << " large=" << r_large;
}

TEST(Scenario, SplittingImprovesResponse) {
  // Fig. 7: one 1600-machine pool vs 4 segments of 400.
  ScenarioConfig whole = BaseConfig();
  whole.machines = 1600;
  whole.clients = 12;
  ScenarioConfig split = whole;
  split.pool_segments = 4;
  const double r_whole = MeanResponse(whole);
  const double r_split = MeanResponse(split);
  EXPECT_LT(r_split, r_whole) << "whole=" << r_whole << " split=" << r_split;
}

TEST(Scenario, ReplicationImprovesResponse) {
  // Fig. 8: replicated pool instances share the machine set.
  ScenarioConfig solo = BaseConfig();
  solo.machines = 1600;
  solo.clients = 24;
  ScenarioConfig replicated = solo;
  replicated.pool_replicas = 4;
  const double r_solo = MeanResponse(solo);
  const double r_replicated = MeanResponse(replicated);
  EXPECT_LT(r_replicated, r_solo * 0.6)
      << "solo=" << r_solo << " replicated=" << r_replicated;
}

TEST(Scenario, WanAddsRttFloor) {
  // Fig. 5: the same setup across a WAN is slower by about the RTT.
  ScenarioConfig lan = BaseConfig();
  lan.clients = 4;
  ScenarioConfig wan = lan;
  wan.wan = true;
  const double r_lan = MeanResponse(lan);
  const double r_wan = MeanResponse(wan);
  EXPECT_GT(r_wan, r_lan + 0.050) << "lan=" << r_lan << " wan=" << r_wan;
}

TEST(Scenario, OnDemandPoolCreationServesQueries) {
  ScenarioConfig config = BaseConfig();
  config.machines = 200;
  config.clusters = 4;
  config.precreate_pools = false;  // pools materialize on first query
  SimScenario scenario(config);
  scenario.Measure(Seconds(10), Seconds(30));
  EXPECT_GT(scenario.collector().completed(), 50u);
  EXPECT_EQ(scenario.collector().failures(), 0u);
  // All four cluster pools were created dynamically, and the pool
  // totals count them.
  EXPECT_EQ(scenario.directory().PoolNames().size(), 4u);
  EXPECT_GE(scenario.TotalPoolStats().allocations,
            scenario.collector().completed());
}

TEST(Scenario, QosFanoutStillAnswersOnce) {
  ScenarioConfig config = BaseConfig();
  config.machines = 400;
  config.clusters = 2;
  config.pool_managers = 2;
  config.qos_fanout = 2;
  config.clients = 4;
  SimScenario scenario(config);
  scenario.Measure(Seconds(5), Seconds(20));
  // Every interaction yields exactly one reply to the client; duplicates
  // are absorbed by the reintegrator.
  EXPECT_GT(scenario.collector().completed(), 20u);
  EXPECT_EQ(scenario.collector().failures(), 0u);
}

TEST(Scenario, IndexedPolicyCutsSelectionCost) {
  // The indexed least-load policy must serve the same closed loop with
  // near-constant entries examined per allocation, where the paper's
  // linear scan pays ~pool-size; response time drops accordingly.
  ScenarioConfig linear = BaseConfig();
  linear.machines = 1600;
  linear.clients = 4;
  ScenarioConfig indexed = linear;
  indexed.policy = "least-load";

  SimScenario linear_run(linear);
  linear_run.Measure(Seconds(2), Seconds(6));
  SimScenario indexed_run(indexed);
  indexed_run.Measure(Seconds(1), Seconds(3));

  EXPECT_GT(linear_run.collector().completed(), 100u);
  EXPECT_GT(indexed_run.collector().completed(), 100u);
  EXPECT_EQ(indexed_run.collector().failures(), 0u);

  const auto linear_stats = linear_run.TotalPoolStats();
  const auto indexed_stats = indexed_run.TotalPoolStats();
  const double linear_cost =
      static_cast<double>(linear_stats.entries_examined) /
      static_cast<double>(linear_stats.allocations);
  const double indexed_cost =
      static_cast<double>(indexed_stats.entries_examined) /
      static_cast<double>(indexed_stats.allocations);
  EXPECT_GT(linear_cost, 1000.0) << "linear scan should touch ~every entry";
  EXPECT_LT(indexed_cost, 8.0) << "index should examine O(1) entries";
  EXPECT_LT(indexed_run.collector().response_stats().mean(),
            linear_run.collector().response_stats().mean());
}

TEST(Scenario, MultiQmPmDeploymentServesAllClients) {
  // The qm_scaling/pm_scaling dimensions: several query managers and
  // pool managers in one deployment, indexed policy, no failures.
  ScenarioConfig config = BaseConfig();
  config.machines = 400;
  config.clusters = 4;
  config.query_managers = 4;
  config.pool_managers = 3;
  config.clients = 12;
  config.policy = "least-load";
  SimScenario scenario(config);
  scenario.Measure(Seconds(2), Seconds(6));
  EXPECT_GT(scenario.collector().completed(), 100u);
  EXPECT_EQ(scenario.collector().failures(), 0u);
  EXPECT_EQ(scenario.network().dropped_messages(), 0u);
}

TEST(Scenario, DeterministicForSeed) {
  auto run = [] {
    ScenarioConfig config;
    config.machines = 200;
    config.clusters = 2;
    config.clients = 4;
    config.seed = 1234;
    SimScenario scenario(config);
    scenario.Measure(Seconds(2), Seconds(10));
    return std::make_pair(scenario.collector().completed(),
                          scenario.collector().response_stats().mean());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

// --- failure injection ---

TEST(Scenario, SurvivesMessageLoss) {
  ScenarioConfig config = BaseConfig();
  config.machines = 400;
  config.clients = 8;
  config.message_loss_probability = 0.05;  // 5% of messages vanish
  config.client_request_timeout = Seconds(2);
  SimScenario scenario(config);
  scenario.Measure(Seconds(5), Seconds(60));
  // Clients keep making progress: timeouts turn losses into failures
  // and the closed loop continues.
  EXPECT_GT(scenario.collector().completed(), 500u);
  EXPECT_GT(scenario.collector().failures(), 0u);
  EXPECT_GT(scenario.network().lost_messages(), 0u);
}

TEST(Scenario, TotalMessageLossStallsButDoesNotWedge) {
  ScenarioConfig config = BaseConfig();
  config.machines = 100;
  config.clients = 2;
  config.message_loss_probability = 1.0;
  config.client_request_timeout = Seconds(1);
  SimScenario scenario(config);
  scenario.Measure(Seconds(2), Seconds(20));
  EXPECT_EQ(scenario.collector().completed(), 0u);
  EXPECT_GT(scenario.collector().failures(), 10u);  // timeouts keep firing
}

TEST(Scenario, MachinesGoingDownAreAvoidedAfterRefresh) {
  ScenarioConfig config = BaseConfig();
  config.machines = 20;
  config.clients = 4;
  config.resort_period = Seconds(1);
  SimScenario scenario(config);
  scenario.RunUntil(Seconds(5));

  // Take half the fleet down mid-run.
  std::vector<db::MachineId> downed;
  scenario.database().VisitAll([&](const db::MachineRecord& rec) {
    if (rec.id % 2 == 0) downed.push_back(rec.id);
  });
  for (const auto id : downed) {
    scenario.database().Update(id, [](db::MachineRecord& rec) {
      rec.state = db::MachineState::kDown;
    });
  }
  // Let the pools' refresh ticks observe the change, then measure.
  scenario.RunUntil(Seconds(8));
  scenario.collector().Reset();
  scenario.RunUntil(Seconds(30));

  // The system still serves queries from the surviving machines.
  EXPECT_GT(scenario.collector().completed(), 100u);
  EXPECT_EQ(scenario.collector().failures(), 0u);
  // Down machines accumulate no further jobs once refresh saw them: their
  // monitor-reported job counts stay at the level they had when downed.
  // (Allocations target only up machines.)
}

TEST(Scenario, HotSpotConcentratesOnOnePool) {
  ScenarioConfig config = BaseConfig();
  config.machines = 800;
  config.clusters = 4;
  config.clients = 8;
  config.hot_fraction = 0.9;
  SimScenario scenario(config);
  scenario.Measure(Seconds(5), Seconds(20));
  EXPECT_GT(scenario.collector().completed(), 0u);
}

// --- LP-parallel engine (site-sharded logical processes) ---

ScenarioConfig LpConfig(std::uint64_t seed = 910) {
  ScenarioConfig config;
  config.machines = 400;
  config.clusters = 4;
  config.wan_sites = 2;
  config.clients = 6;
  config.seed = seed;
  return config;
}

// Everything the closed loop decides, compressed: equal digests mean
// the runs made identical allocation decisions in identical order.
struct RunDigest {
  std::uint64_t completed = 0;
  std::uint64_t failures = 0;
  std::uint64_t allocations = 0;
  std::uint64_t entries_examined = 0;
  std::uint64_t events = 0;
  double mean_s = 0;
  double p95_s = 0;

  bool operator==(const RunDigest& other) const {
    return completed == other.completed && failures == other.failures &&
           allocations == other.allocations &&
           entries_examined == other.entries_examined &&
           events == other.events && mean_s == other.mean_s &&
           p95_s == other.p95_s;
  }

  // Printed as a RunDigest initializer, doubles with round-trip
  // precision, so a mismatch shows the literal to compare against.
  friend std::ostream& operator<<(std::ostream& out, const RunDigest& d) {
    char doubles[64];
    std::snprintf(doubles, sizeof(doubles), "%.17g, %.17g", d.mean_s,
                  d.p95_s);
    return out << "{" << d.completed << ", " << d.failures << ", "
               << d.allocations << ", " << d.entries_examined << ", "
               << d.events << ", " << doubles << "}";
  }
};

RunDigest DigestFor(ScenarioConfig config, SimDuration warmup = Seconds(3),
                    SimDuration measure = Seconds(15)) {
  SimScenario scenario(std::move(config));
  scenario.Measure(warmup, measure);
  RunDigest digest;
  digest.completed = scenario.collector().completed();
  digest.failures = scenario.collector().failures();
  const auto pool_stats = scenario.TotalPoolStats();
  digest.allocations = pool_stats.allocations;
  digest.entries_examined = pool_stats.entries_examined;
  digest.events = scenario.total_events();
  digest.mean_s = scenario.collector().response_stats().mean();
  digest.p95_s = scenario.collector().QuantileSeconds(0.95);
  return digest;
}

// A short run's digest as text, doubles at round-trip precision: a
// pinned literal compares exactly, and a mismatch prints the new value.
std::string DigestText(ScenarioConfig config) {
  std::ostringstream out;
  out << DigestFor(std::move(config), Seconds(1), Seconds(5));
  return out.str();
}

// Every build shape, pinned. The digests are literals captured from the
// code before the serial and LP build paths merged, so moving one rng_
// draw or one AddNode in scenario assembly shows up here.
TEST(ScenarioBuild, EveryShapeReplaysItsPinnedDigest) {
  ScenarioConfig lan;
  lan.machines = 301;
  lan.clusters = 3;
  lan.query_managers = 2;
  lan.pool_managers = 3;
  lan.clients = 4;
  lan.seed = 4242;
  EXPECT_EQ(DigestText(lan),
            "{8662, 0, 10405, 1043950, 124865, 0.0023085975525282817, "
            "0.0029819499999999988}");

  ScenarioConfig wan = lan;
  wan.wan = true;
  EXPECT_EQ(DigestText(wan),
            "{299, 0, 357, 35819, 4296, 0.067193080267558464, "
            "0.070441100000000006}");

  ScenarioConfig config = wan;
  config.directory_replicas = 2;
  EXPECT_EQ(DigestText(config),
            "{266, 0, 315, 31606, 3964, 0.075262503759398497, "
            "0.13224474999999999}");

  // On-demand pools: the pool totals count the proxy-created pools.
  config = lan;
  config.precreate_pools = false;
  EXPECT_EQ(DigestText(config),
            "{9148, 0, 10730, 1076567, 128805, 0.0021859955181460443, "
            "0.002797}");

  config = lan;
  config.pool_segments = 4;
  EXPECT_EQ(DigestText(config),
            "{8334, 0, 39996, 1003155, 319987, 0.0024000047996160213, "
            "0.0024350000000000001}");

  config = lan;
  config.pool_replicas = 3;
  EXPECT_EQ(DigestText(config),
            "{12049, 0, 14446, 483199, 173394, 0.0016599145987218906, "
            "0.0017689999999999997}");

  const auto churn = fault::FaultPlan::Parse(
      "churn start=0.5 end=5 rate=4 downtime=1 target=machines\n"
      "site-crash at=2 site=purdue downtime=1.5\n"
      "churn start=1 end=5 rate=1 target=pools\n");
  ASSERT_TRUE(churn.ok());
  config = wan;
  config.client_request_timeout = Seconds(2);
  config.fault_plan = churn.value();
  EXPECT_EQ(DigestText(config),
            "{117, 181, 174, 17455, 4330, 0.067253777777777787, "
            "0.070544800000000005}");

  config = lan;
  config.wan_sites = 2;
  EXPECT_EQ(DigestText(config),
            "{636, 0, 770, 77232, 9252, 0.031489904088050302, "
            "0.069950749999999992}");

  config = lan;
  config.wan_sites = 3;
  config.clusters = 5;
  EXPECT_EQ(DigestText(config),
            "{447, 0, 533, 32089, 6419, 0.044718029082774051, "
            "0.070216300000000009}");

  // A fault plan keeps an LP config on the one-stack serial build.
  const auto loss = fault::FaultPlan::Parse("loss start=2 end=4 p=0.2\n");
  ASSERT_TRUE(loss.ok());
  config = lan;
  config.wan_sites = 2;
  config.client_request_timeout = Seconds(2);
  config.fault_plan = loss.value();
  EXPECT_EQ(DigestText(config),
            "{5187, 4, 6930, 695286, 83189, 0.0023131569307885003, "
            "0.0029686999999999999}");
}

TEST(ScenarioLp, MultiSiteConfigBuildsSharded) {
  SimScenario scenario(LpConfig());
  EXPECT_TRUE(scenario.lp_mode());
  scenario.Measure(Seconds(3), Seconds(15));
  EXPECT_GT(scenario.collector().completed(), 0u);
  EXPECT_EQ(scenario.collector().failures(), 0u);
}

TEST(ScenarioLp, AccessorsReachTheFirstSite) {
  // Site 0 owns clusters 0 and 2: half the fleet and two pools, which
  // the chaos leaked-claim walk then actually reads.
  SimScenario scenario(LpConfig());
  ASSERT_TRUE(scenario.lp_mode());
  EXPECT_EQ(scenario.database().size(), 200u);
  EXPECT_EQ(scenario.directory().pool_count(), 2u);
}

TEST(ScenarioLp, WorkerCountNeverChangesResults) {
  // Sharding is a property of the scenario (wan_sites), never of
  // cell_jobs, so any worker count replays the identical schedule: on 2
  // sites every count above 2 exceeds the shards; on 4 sites, 3 workers
  // split them unevenly and 8 exceed them.
  for (const std::size_t sites : {2u, 4u}) {
    ScenarioConfig config = LpConfig();
    config.wan_sites = sites;
    ASSERT_TRUE(SimScenario(config).lp_mode()) << sites << " sites";
    const RunDigest serial = DigestFor(config);
    EXPECT_GT(serial.completed, 0u) << sites << " sites";
    for (const std::size_t jobs : {2u, 3u, 4u, 8u}) {
      config.cell_jobs = jobs;
      EXPECT_TRUE(DigestFor(config) == serial)
          << sites << " sites, cell_jobs=" << jobs;
    }
  }
}

TEST(ScenarioLp, ZeroLatencyWanFallsBackToSerial) {
  // A zero-latency link leaves no lookahead: the conservative window
  // would be empty, so the build warns and runs the serial engine.
  ScenarioConfig config = LpConfig();
  config.wan_one_way = 0;
  config.wan_jitter = 0;
  SimScenario scenario(config);
  EXPECT_FALSE(scenario.lp_mode());
  scenario.Measure(Seconds(3), Seconds(15));
  EXPECT_GT(scenario.collector().completed(), 0u);
}

TEST(ScenarioLp, FaultPlanForcesSerialFallback) {
  // Fault injection mutates cross-shard state outside the mailbox
  // protocol, so a fault plan disables LP sharding rather than racing.
  ScenarioConfig config = LpConfig();
  fault::FaultEvent event;
  event.kind = fault::FaultKind::kLoss;
  event.start = Seconds(5);
  event.end = Seconds(6);
  event.probability = 0.1;
  config.fault_plan.events.push_back(event);
  SimScenario scenario(config);
  EXPECT_FALSE(scenario.lp_mode());
}

TEST(ScenarioLp, RandomizedTopologiesMatchAcrossWorkerCounts) {
  // Fuzz the deployment shape: whatever the topology, worker counts
  // must agree on every allocation decision.
  Rng rng(0xf022u);
  for (int iteration = 0; iteration < 4; ++iteration) {
    ScenarioConfig config;
    config.wan_sites = 2 + rng.NextBounded(3);               // 2..4
    config.clusters = config.wan_sites + rng.NextBounded(5);  // sites..+4
    config.machines = 120 + rng.NextBounded(300);
    config.clients = 2 + rng.NextBounded(6);
    config.wan_one_way = Millis(5 + rng.NextBounded(35));
    config.seed = 31000 + iteration;
    const RunDigest serial = DigestFor(config, Seconds(2), Seconds(10));
    EXPECT_GT(serial.completed, 0u) << "iteration " << iteration;
    for (const std::size_t jobs : {2u, 3u, 4u}) {
      config.cell_jobs = jobs;
      EXPECT_TRUE(DigestFor(config, Seconds(2), Seconds(10)) == serial)
          << "iteration " << iteration << " cell_jobs " << jobs;
    }
    config.cell_jobs = 1;
  }
}

}  // namespace
}  // namespace actyp
