// Fault subsystem tests: plan parsing and round-tripping, loss-window
// on/off edges, partition drops, machine/service churn re-registration
// through a full scenario, and deterministic replay — including
// byte-identical JSON from the registered fault scenarios under a
// fixed seed, the property the perf-tracking baseline relies on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "actyp/scenario.hpp"
#include "actyp/scenario_registry.hpp"
#include "common/config.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"

namespace actyp {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;

TEST(FaultPlan, ParsesEveryKind) {
  const auto plan = FaultPlan::Parse(
      "# a comment\n"
      "loss start=2 end=8 p=0.05\n"
      "latency start=3 end=6 extra_ms=50 site_a=purdue site_b=upc\n"
      "partition start=4 end=6 site_a=purdue site_b=upc\n"
      "crash at=5 target=machines count=10 downtime=3\n"
      "crash at=5 target=qm0\n"
      "churn start=1 end=30 rate=2 downtime=5 target=machines\n"
      "churn start=1 rate=0.5 target=pools\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->events.size(), 7u);

  const auto& loss = plan->events[0];
  EXPECT_EQ(loss.kind, FaultKind::kLoss);
  EXPECT_EQ(loss.start, Seconds(2));
  EXPECT_EQ(loss.end, Seconds(8));
  EXPECT_DOUBLE_EQ(loss.probability, 0.05);

  const auto& latency = plan->events[1];
  EXPECT_EQ(latency.kind, FaultKind::kLatency);
  EXPECT_EQ(latency.extra_latency, Millis(50));
  EXPECT_EQ(latency.site_a, "purdue");
  EXPECT_EQ(latency.site_b, "upc");

  const auto& partition = plan->events[2];
  EXPECT_EQ(partition.kind, FaultKind::kPartition);
  EXPECT_EQ(partition.start, Seconds(4));
  EXPECT_EQ(partition.end, Seconds(6));

  const auto& crash = plan->events[3];
  EXPECT_EQ(crash.kind, FaultKind::kCrash);
  EXPECT_EQ(crash.target, "machines");
  EXPECT_EQ(crash.count, 10u);
  EXPECT_EQ(crash.downtime, Seconds(3));

  EXPECT_EQ(plan->events[4].target, "qm0");

  const auto& churn = plan->events[5];
  EXPECT_EQ(churn.kind, FaultKind::kChurn);
  EXPECT_DOUBLE_EQ(churn.rate_per_s, 2.0);
  EXPECT_EQ(churn.end, Seconds(30));

  EXPECT_EQ(plan->events[6].target, "pools");
  EXPECT_EQ(plan->events[6].end, 0);
}

TEST(FaultPlan, RejectsMalformedInput) {
  EXPECT_FALSE(FaultPlan::Parse("quake start=1\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("loss start=1 p=1.5\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("loss p=oops\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("loss start=5 end=2 p=0.1\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("loss frequency=2\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("latency start=1 end=2\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("churn target=machines\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("crash at=1 target= count=2\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("loss start 1\n").ok());
  // The error names the offending line.
  const auto bad = FaultPlan::Parse("loss p=0.1\nchurn target=x\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("line 2"), std::string::npos);
}

TEST(FaultPlan, SerializeRoundTrips) {
  const char* text =
      "loss start=2 end=8 p=0.05\n"
      "latency start=3 end=6 extra_ms=50 site_a=purdue site_b=upc\n"
      "partition start=4 end=6 site_a=* site_b=*\n"
      "crash at=5 target=machines count=10 downtime=3\n"
      "churn start=1 rate=0.5 downtime=2 target=pool.*\n";
  const auto plan = FaultPlan::Parse(text);
  ASSERT_TRUE(plan.ok());
  const auto reparsed = FaultPlan::Parse(plan->Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(plan->Serialize(), reparsed->Serialize());
  ASSERT_EQ(reparsed->events.size(), plan->events.size());
  for (std::size_t i = 0; i < plan->events.size(); ++i) {
    EXPECT_EQ(plan->events[i].kind, reparsed->events[i].kind) << i;
    EXPECT_EQ(plan->events[i].start, reparsed->events[i].start) << i;
    EXPECT_EQ(plan->events[i].end, reparsed->events[i].end) << i;
  }
}

TEST(FaultPlan, FromConfigOrdersNumerically) {
  const auto config = Config::Parse(
      "[fault]\n"
      "2 = crash at=5 target=machines\n"
      "10 = churn start=6 rate=1 target=machines\n"
      "1 = loss start=0 end=4 p=0.1\n");
  ASSERT_TRUE(config.ok());
  const auto plan = FaultPlan::FromConfig(config.value());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->events.size(), 3u);
  // Numeric order 1, 2, 10 — not lexicographic 1, 10, 2.
  EXPECT_EQ(plan->events[0].kind, FaultKind::kLoss);
  EXPECT_EQ(plan->events[1].kind, FaultKind::kCrash);
  EXPECT_EQ(plan->events[2].kind, FaultKind::kChurn);

  const auto bad = Config::Parse("[fault]\nfirst = loss p=0.1\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(FaultPlan::FromConfig(bad.value()).ok());
}

TEST(FaultInjector, LossWindowOnOffEdges) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 1);
  network.SetLossProbability(0.01);  // scenario's base loss rate
  FaultInjector injector(&kernel, &network, 7);
  const auto plan = FaultPlan::Parse("loss start=2 end=4 p=0.5\n");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(injector.Arm(plan.value()).ok());

  kernel.RunUntil(Seconds(2) - 1);
  EXPECT_DOUBLE_EQ(network.loss_probability(), 0.01);
  kernel.RunUntil(Seconds(2));
  EXPECT_DOUBLE_EQ(network.loss_probability(), 0.5);
  kernel.RunUntil(Seconds(4) - 1);
  EXPECT_DOUBLE_EQ(network.loss_probability(), 0.5);
  kernel.RunUntil(Seconds(4));
  // The window closes back to the base rate, not to zero.
  EXPECT_DOUBLE_EQ(network.loss_probability(), 0.01);
  EXPECT_EQ(injector.stats().loss_windows_opened, 1u);
  EXPECT_EQ(injector.stats().loss_windows_closed, 1u);
}

// A node that counts deliveries.
class CountingNode final : public net::Node {
 public:
  void OnMessage(const net::Envelope&, net::NodeContext&) override {
    ++received;
  }
  int received = 0;
};

TEST(FaultInjector, PartitionDropsThenHeals) {
  simnet::SimKernel kernel;
  simnet::Topology topology =
      simnet::Topology::WanTwoSites("purdue", "upc", Millis(10), 0);
  simnet::SimNetwork network(&kernel, std::move(topology), 1);
  network.AddHost("client-host", 1, "purdue");
  network.AddHost("server-host", 1, "upc");
  auto client = std::make_shared<CountingNode>();
  auto server = std::make_shared<CountingNode>();
  network.AddNode("client", client, {"client-host", 1});
  network.AddNode("server", server, {"server-host", 1});

  FaultInjector injector(&kernel, &network, 7);
  const auto plan =
      FaultPlan::Parse("partition start=1 end=2 site_a=purdue site_b=upc\n");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(injector.Arm(plan.value()).ok());

  network.Post("client", "server", net::Message{"ping"});
  kernel.RunUntil(Seconds(1));  // cut fires at t=1
  EXPECT_EQ(server->received, 1);
  EXPECT_EQ(network.partition_dropped(), 0u);

  network.Post("client", "server", net::Message{"ping"});
  kernel.RunUntil(Seconds(2) - 1);
  EXPECT_EQ(server->received, 1);
  EXPECT_EQ(network.partition_dropped(), 1u);

  kernel.RunUntil(Seconds(2));  // heal
  network.Post("client", "server", net::Message{"ping"});
  kernel.RunUntil(Seconds(3));
  EXPECT_EQ(server->received, 2);
  EXPECT_EQ(network.partition_dropped(), 1u);
  EXPECT_EQ(injector.stats().partitions_cut, 1u);
  EXPECT_EQ(injector.stats().partitions_healed, 1u);
}

TEST(FaultInjector, OverlappingLossWindowsCompose) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 1);
  network.SetLossProbability(0.01);
  FaultInjector injector(&kernel, &network, 7);
  const auto plan = FaultPlan::Parse(
      "loss start=1 end=3 p=0.1\n"
      "loss start=2 end=4 p=0.5\n");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(injector.Arm(plan.value()).ok());

  kernel.RunUntil(Seconds(2));
  EXPECT_DOUBLE_EQ(network.loss_probability(), 0.5);
  // The first window closing must not clobber the still-open second.
  kernel.RunUntil(Seconds(3));
  EXPECT_DOUBLE_EQ(network.loss_probability(), 0.5);
  // Both closed: back to the base rate, not a stale saved value.
  kernel.RunUntil(Seconds(4));
  EXPECT_DOUBLE_EQ(network.loss_probability(), 0.01);
}

TEST(FaultInjector, OverlappingPartitionsHealLast) {
  simnet::SimKernel kernel;
  simnet::Topology topology =
      simnet::Topology::WanTwoSites("purdue", "upc", Millis(10), 0);
  simnet::SimNetwork network(&kernel, std::move(topology), 1);
  FaultInjector injector(&kernel, &network, 7);
  const auto plan = FaultPlan::Parse(
      "partition start=1 end=3 site_a=purdue site_b=upc\n"
      "partition start=2 end=4 site_a=purdue site_b=upc\n");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(injector.Arm(plan.value()).ok());

  network.topology().SetHostSite("ha", "purdue");
  network.topology().SetHostSite("hb", "upc");
  kernel.RunUntil(Seconds(3));  // first heal fires; second cut still open
  EXPECT_TRUE(network.topology().IsPartitioned("ha", "hb"));
  kernel.RunUntil(Seconds(4));
  EXPECT_FALSE(network.topology().IsPartitioned("ha", "hb"));
}

TEST(Topology, OneSidedWildcardLatencyPenaltyApplies) {
  simnet::Topology topology =
      simnet::Topology::WanTwoSites("purdue", "upc", Millis(10), 0);
  topology.SetHostSite("ha", "purdue");
  topology.SetHostSite("hb", "upc");
  Rng rng(1);
  const SimDuration before = topology.SampleLatency("ha", "hb", 0, rng);
  topology.SetLatencyPenalty("upc", "*", Millis(50));
  const SimDuration during = topology.SampleLatency("ha", "hb", 0, rng);
  EXPECT_EQ(during, before + Millis(50));
  topology.SetLatencyPenalty("upc", "*", 0);
  EXPECT_EQ(topology.SampleLatency("ha", "hb", 0, rng), before);
}

TEST(FaultInjector, ArmRejectsEventsWithoutHooks) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 1);
  FaultInjector injector(&kernel, &network, 7);
  const auto machines = FaultPlan::Parse("churn rate=1 target=machines\n");
  ASSERT_TRUE(machines.ok());
  EXPECT_FALSE(injector.Arm(machines.value()).ok());
  const auto service = FaultPlan::Parse("crash at=1 target=qm9\n");
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE(injector.Arm(service.value()).ok());
  const auto loss = FaultPlan::Parse("loss p=0.5\n");
  ASSERT_TRUE(loss.ok());
  EXPECT_TRUE(injector.Arm(loss.value()).ok());
}

ScenarioConfig SmallConfig(std::uint64_t seed = 11) {
  ScenarioConfig config;
  config.machines = 100;
  config.clusters = 2;
  config.clients = 4;
  config.client_request_timeout = Seconds(0.5);
  config.seed = seed;
  return config;
}

std::size_t CountDown(db::ResourceDatabase& database) {
  std::size_t down = 0;
  database.VisitAll([&down](const db::MachineRecord& rec) {
    if (rec.state == db::MachineState::kDown) ++down;
  });
  return down;
}

TEST(FaultScenario, MachineCrashFlipsStateAndRestores) {
  ScenarioConfig config = SmallConfig();
  const auto plan =
      FaultPlan::Parse("crash at=1 target=machines count=5 downtime=2\n");
  ASSERT_TRUE(plan.ok());
  config.fault_plan = plan.value();
  SimScenario scenario(std::move(config));
  ASSERT_TRUE(scenario.fault_status().ok())
      << scenario.fault_status().ToString();

  scenario.RunUntil(Seconds(1.5));
  EXPECT_EQ(CountDown(scenario.database()), 5u);
  EXPECT_EQ(scenario.fault_stats().machines_crashed, 5u);
  scenario.RunUntil(Seconds(3.5));
  EXPECT_EQ(CountDown(scenario.database()), 0u);
  EXPECT_EQ(scenario.fault_stats().machines_restored, 5u);
}

TEST(FaultScenario, ServiceCrashRemovesNodeThenRestartReregisters) {
  ScenarioConfig config = SmallConfig();
  const auto plan = FaultPlan::Parse(
      "crash at=1 target=qm0 downtime=2\n"
      "crash at=1 target=pool.c0.r0 downtime=2\n");
  ASSERT_TRUE(plan.ok());
  config.fault_plan = plan.value();
  SimScenario scenario(std::move(config));
  ASSERT_TRUE(scenario.fault_status().ok())
      << scenario.fault_status().ToString();

  EXPECT_TRUE(scenario.network().HasNode("qm0"));
  EXPECT_EQ(scenario.directory().pool_count(), 2u);

  scenario.RunUntil(Seconds(1.5));
  EXPECT_FALSE(scenario.network().HasNode("qm0"));
  EXPECT_FALSE(scenario.network().HasNode("pool.c0.r0"));
  // The dead pool instance is gone from the directory...
  EXPECT_EQ(scenario.directory().pool_count(), 1u);

  scenario.RunUntil(Seconds(3.5));
  // ...and the restarted one registered itself again (§5.2.3 lifecycle).
  EXPECT_TRUE(scenario.network().HasNode("qm0"));
  EXPECT_TRUE(scenario.network().HasNode("pool.c0.r0"));
  EXPECT_EQ(scenario.directory().pool_count(), 2u);
  EXPECT_EQ(scenario.fault_stats().services_crashed, 2u);
  EXPECT_EQ(scenario.fault_stats().services_restarted, 2u);
}

TEST(FaultScenario, SegmentCrashFreesItsOwnClaim) {
  // Segments claim under distinct "<pool>#<s>" names; a dead segment
  // must free its partition immediately even though its siblings are
  // still registered under the same pool name.
  ScenarioConfig config = SmallConfig();
  config.clusters = 1;
  config.pool_segments = 2;
  const auto plan = FaultPlan::Parse("crash at=1 target=pool.c0.s0\n");
  ASSERT_TRUE(plan.ok());
  config.fault_plan = plan.value();
  SimScenario scenario(std::move(config));
  ASSERT_TRUE(scenario.fault_status().ok());

  const std::size_t free_before = scenario.database().free_count();
  scenario.RunUntil(Seconds(1.5));
  // Half the fleet (segment 0's partition) came back to the free list.
  EXPECT_GE(scenario.database().free_count(), free_before + 40);
  EXPECT_EQ(scenario.directory().pool_count(), 1u);
}

TEST(FaultScenario, ScenarioSurfacesBadPlanViaFaultStatus) {
  ScenarioConfig config = SmallConfig();
  const auto plan = FaultPlan::Parse("crash at=1 target=no_such_service\n");
  ASSERT_TRUE(plan.ok());
  config.fault_plan = plan.value();
  SimScenario scenario(std::move(config));
  EXPECT_FALSE(scenario.fault_status().ok());
}

struct ReplayResult {
  std::uint64_t completed = 0;
  std::uint64_t failures = 0;
  double mean = 0;
  std::uint64_t lost = 0;
  std::uint64_t crashed = 0;
};

ReplayResult RunReplay(std::uint64_t seed) {
  ScenarioConfig config = SmallConfig(seed);
  config.message_loss_probability = 0.05;
  const auto plan = FaultPlan::Parse(
      "churn start=0 rate=5 downtime=1 target=machines\n"
      "loss start=1 end=2 p=0.3\n");
  EXPECT_TRUE(plan.ok());
  config.fault_plan = plan.value();
  SimScenario scenario(std::move(config));
  scenario.Measure(Seconds(1), Seconds(3));
  ReplayResult result;
  result.completed = scenario.collector().completed();
  result.failures = scenario.collector().failures();
  result.mean = scenario.collector().response_stats().mean();
  result.lost = scenario.network().lost_messages();
  result.crashed = scenario.fault_stats().machines_crashed;
  return result;
}


TEST(FaultPlan, ParsesAndSerializesSiteEvents) {
  const auto plan = FaultPlan::Parse(
      "site-crash at=5 site=purdue downtime=3\n"
      "site-restore at=9 site=purdue\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->events.size(), 2u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::kSiteCrash);
  EXPECT_EQ(plan->events[0].site, "purdue");
  EXPECT_EQ(plan->events[0].downtime, Seconds(3));
  EXPECT_EQ(plan->events[1].kind, FaultKind::kSiteRestore);
  EXPECT_EQ(plan->events[1].start, Seconds(9));

  // Round-trips through the text format.
  const auto reparsed = FaultPlan::Parse(plan->Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Serialize(), plan->Serialize());

  // Site events demand a site.
  EXPECT_FALSE(FaultPlan::Parse("site-crash at=5\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("site-restore at=5\n").ok());
}

TEST(FaultScenario, SiteCrashTakesMachinesAndServicesDownTogether) {
  // On a LAN everything lives at site "local": a site-crash is a
  // correlated whole-deployment failure — every machine and every
  // registered service goes dark in one event, and the explicit
  // site-restore brings exactly that set back.
  ScenarioConfig config = SmallConfig();
  const auto plan = FaultPlan::Parse(
      "site-crash at=1 site=local\n"
      "site-restore at=2 site=local\n");
  ASSERT_TRUE(plan.ok());
  config.fault_plan = plan.value();
  SimScenario scenario(std::move(config));
  ASSERT_TRUE(scenario.fault_status().ok())
      << scenario.fault_status().ToString();

  scenario.RunUntil(Seconds(1.5));
  EXPECT_EQ(CountDown(scenario.database()), 100u);
  EXPECT_FALSE(scenario.network().HasNode("qm0"));
  EXPECT_FALSE(scenario.network().HasNode("pm0"));
  EXPECT_FALSE(scenario.network().HasNode("pool.c0.r0"));
  EXPECT_EQ(scenario.fault_stats().sites_crashed, 1u);
  EXPECT_GE(scenario.fault_stats().services_crashed, 4u);

  scenario.RunUntil(Seconds(2.5));
  EXPECT_EQ(CountDown(scenario.database()), 0u);
  EXPECT_TRUE(scenario.network().HasNode("qm0"));
  EXPECT_TRUE(scenario.network().HasNode("pool.c0.r0"));
  EXPECT_EQ(scenario.fault_stats().sites_restored, 1u);
  EXPECT_EQ(scenario.fault_stats().services_restarted,
            scenario.fault_stats().services_crashed);
}

TEST(FaultScenario, SiteCrashSkipsMachinesAlreadyDown) {
  // The site crash takes only the machines still up, so its restore
  // leaves the earlier crash's victims down until their own downtime
  // ends.
  ScenarioConfig config = SmallConfig();
  const auto plan = FaultPlan::Parse(
      "crash at=1 target=machines count=5 downtime=3\n"
      "site-crash at=1.5 site=local\n"
      "site-restore at=2 site=local\n");
  ASSERT_TRUE(plan.ok());
  config.fault_plan = plan.value();
  SimScenario scenario(std::move(config));
  ASSERT_TRUE(scenario.fault_status().ok())
      << scenario.fault_status().ToString();

  scenario.RunUntil(Seconds(1.25));
  EXPECT_EQ(CountDown(scenario.database()), 5u);
  scenario.RunUntil(Seconds(1.75));
  EXPECT_EQ(CountDown(scenario.database()), 100u);
  scenario.RunUntil(Seconds(2.5));
  EXPECT_EQ(CountDown(scenario.database()), 5u);
  EXPECT_EQ(scenario.fault_stats().machines_restored, 95u);
  scenario.RunUntil(Seconds(4.5));
  EXPECT_EQ(CountDown(scenario.database()), 0u);
  EXPECT_EQ(scenario.fault_stats().machines_crashed, 100u);
  EXPECT_EQ(scenario.fault_stats().machines_restored, 100u);
}

TEST(FaultScenario, ReplayIsDeterministicUnderFixedSeed) {
  const ReplayResult a = RunReplay(42);
  const ReplayResult b = RunReplay(42);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.crashed, b.crashed);
  // The run actually exercised the fault machinery.
  EXPECT_GT(a.lost, 0u);
  EXPECT_GT(a.crashed, 0u);
  EXPECT_GT(a.completed, 0u);
}

// Acceptance property for the fault scenarios: the same driver options
// must produce byte-identical JSON, run after run.
TEST(FaultScenario, RegisteredFaultScenariosAreByteDeterministic) {
  ScenarioRunOptions options;
  options.machines = 200;
  options.clients = 4;
  options.time_scale = 0.05;
  options.seed = 7;
  for (const char* name :
       {"lossy_lan", "lossy_wan", "pool_churn", "ondemand_churn"}) {
    const ScenarioInfo* info = ScenarioRegistry::Instance().Find(name);
    ASSERT_NE(info, nullptr) << name;
    std::ostringstream first;
    WriteReportJson(info->run(options), first);
    std::ostringstream second;
    WriteReportJson(info->run(options), second);
    EXPECT_EQ(first.str(), second.str()) << name;
    EXPECT_NE(first.str().find("\"success_rate\""), std::string::npos)
        << name;
  }
}

}  // namespace
}  // namespace actyp
