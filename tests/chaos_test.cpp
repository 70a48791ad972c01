// Chaos engine tests: regime and fault-plan round-tripping (the
// property the repro bundles rely on), generator determinism, opt-in
// site validation at arm time, every invariant in the catalogue firing
// on a seeded known violation, shrinker convergence to a minimal plan,
// and byte-stable trial replay.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "actyp/scenario.hpp"
#include "actyp/scenario_registry.hpp"
#include "chaos/chaos_plan.hpp"
#include "chaos/invariants.hpp"
#include "chaos/shrinker.hpp"
#include "chaos/trial.hpp"
#include "chaos/workload_regime.hpp"
#include "common/config.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"

namespace actyp {
namespace {

using chaos::ChaosPlanGenerator;
using chaos::ChaosRanges;
using chaos::ChaosTrial;
using chaos::InvariantChecker;
using chaos::Shrinker;
using chaos::TrialParams;
using chaos::Violation;
using chaos::WorkloadRegime;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;

bool HasInvariant(const std::vector<Violation>& violations,
                  std::string_view name) {
  for (const Violation& violation : violations) {
    if (violation.invariant == name) return true;
  }
  return false;
}

std::string DetailOf(const std::vector<Violation>& violations,
                     std::string_view name) {
  for (const Violation& violation : violations) {
    if (violation.invariant == name) return violation.detail;
  }
  return "";
}

// A regime small enough that a full trial (warmup + measure + drain)
// runs in well under a second of host time at time_scale 0.2.
WorkloadRegime SmallRegime() {
  WorkloadRegime regime;
  regime.machines = 100;
  regime.clusters = 1;
  regime.clients = 4;
  regime.query_managers = 1;
  return regime;
}

TrialParams FastParams() {
  TrialParams params;
  params.time_scale = 0.2;
  return params;
}

// --- round-tripping: the property the repro bundles rely on ---

TEST(WorkloadRegime, SerializeRoundTripsDefaults) {
  const WorkloadRegime regime;
  const auto reparsed = WorkloadRegime::Parse(regime.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value(), regime);
}

TEST(WorkloadRegime, ParseRejectsMalformedInput) {
  EXPECT_FALSE(WorkloadRegime::Parse("machines").ok());
  EXPECT_FALSE(WorkloadRegime::Parse("machines=oops").ok());
  EXPECT_FALSE(WorkloadRegime::Parse("cpus=4").ok());
  EXPECT_FALSE(WorkloadRegime::Parse("machines=0").ok());
  EXPECT_FALSE(WorkloadRegime::Parse("sync_period=0").ok());
  EXPECT_FALSE(WorkloadRegime::Parse("hot_fraction=1.5").ok());
}

// Property test over the generator's whole output space: every regime
// and every fault plan a trial can be built from must survive the text
// round-trip value-exactly (the generator quantizes magnitudes so %g
// serialization is lossless).
TEST(ChaosPlanGenerator, GeneratedTrialsRoundTripThroughText) {
  const ChaosPlanGenerator generator(ChaosRanges{}, 8.0);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const ChaosTrial trial = generator.Generate(seed);

    const auto regime = WorkloadRegime::Parse(trial.regime.Serialize());
    ASSERT_TRUE(regime.ok()) << "seed " << seed;
    EXPECT_EQ(regime.value(), trial.regime) << "seed " << seed;

    const auto plan = FaultPlan::Parse(trial.plan.Serialize());
    ASSERT_TRUE(plan.ok()) << "seed " << seed << ": "
                           << plan.status().ToString();
    EXPECT_EQ(plan.value(), trial.plan) << "seed " << seed;

    // The config embedding (repro bundles) is an exact inverse too.
    const auto from_config = FaultPlan::FromConfig(trial.plan.ToConfig());
    ASSERT_TRUE(from_config.ok()) << "seed " << seed;
    EXPECT_EQ(from_config.value(), trial.plan) << "seed " << seed;
  }
}

TEST(ChaosPlanGenerator, IsDeterministic) {
  const ChaosPlanGenerator generator(ChaosRanges{}, 8.0);
  EXPECT_EQ(generator.Generate(42), generator.Generate(42));
  EXPECT_NE(generator.Generate(42), generator.Generate(43));
}

TEST(ChaosPlanGenerator, HostileModeEmitsWedgeRegimes) {
  ChaosRanges ranges;
  ranges.hostile = true;
  const ChaosPlanGenerator generator(ranges, 8.0);
  bool saw_zero_timeout = false;
  for (std::uint64_t seed = 1; seed <= 32 && !saw_zero_timeout; ++seed) {
    saw_zero_timeout = generator.Generate(seed).regime.request_timeout_s == 0;
  }
  EXPECT_TRUE(saw_zero_timeout);
}

// --- site validation at arm time (opt-in) ---

TEST(FaultInjector, RejectsUnknownSiteOnceSitesAreRegistered) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 1);
  FaultInjector injector(&kernel, &network, 7);
  const auto plan = FaultPlan::Parse(
      "partition start=1 end=2 site_a=purdue site_b=bogus\n");
  ASSERT_TRUE(plan.ok());

  // Legacy behavior: an injector that never registered sites arms
  // anything (bare-injector tests rely on this).
  EXPECT_TRUE(injector.Arm(plan.value()).ok());

  FaultInjector checked(&kernel, &network, 7);
  checked.RegisterSite("purdue");
  checked.RegisterSite("upc");
  const Status status = checked.Arm(plan.value());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("unknown site"), std::string::npos);
  EXPECT_NE(status.ToString().find("bogus"), std::string::npos);

  // Known sites and wildcards still arm.
  const auto known = FaultPlan::Parse(
      "partition start=1 end=2 site_a=purdue site_b=upc\n"
      "latency start=1 end=2 extra_ms=5 site_a=* site_b=*\n");
  ASSERT_TRUE(known.ok());
  EXPECT_TRUE(checked.Arm(known.value()).ok());
}

TEST(FaultScenario, SurfacesUnknownSitePlanViaFaultStatus) {
  ScenarioConfig config;
  config.machines = 100;
  config.clusters = 1;
  config.clients = 2;
  const auto plan = FaultPlan::Parse(
      "latency start=1 end=2 extra_ms=10 site_a=nowhere site_b=local\n");
  ASSERT_TRUE(plan.ok());
  config.fault_plan = plan.value();
  SimScenario scenario(std::move(config));
  ASSERT_FALSE(scenario.fault_status().ok());
  EXPECT_NE(scenario.fault_status().ToString().find("unknown site"),
            std::string::npos);
}

// --- invariant catalogue: pure helpers ---

TEST(InvariantChecker, TimerAccountingHelper) {
  EXPECT_FALSE(InvariantChecker::CheckTimerAccounting(10, 5, 2, 3));
  const auto violation = InvariantChecker::CheckTimerAccounting(10, 5, 2, 2);
  ASSERT_TRUE(violation);
  EXPECT_EQ(violation->invariant, "timer-conservation");
}

TEST(InvariantChecker, SuccessFloorHelper) {
  EXPECT_FALSE(InvariantChecker::CheckSuccessFloor(9, 1, 0.5));
  EXPECT_FALSE(InvariantChecker::CheckSuccessFloor(0, 0, 0.5));
  EXPECT_FALSE(InvariantChecker::CheckSuccessFloor(1, 9, 0.0));
  const auto violation = InvariantChecker::CheckSuccessFloor(1, 9, 0.5);
  ASSERT_TRUE(violation);
  EXPECT_EQ(violation->invariant, "success-floor");
  EXPECT_NE(violation->detail.find("0.100"), std::string::npos);
}

// --- invariant catalogue: end-to-end trials ---

TEST(ChaosTrial, CleanTrialReportsNoViolations) {
  ChaosTrial trial;
  trial.seed = 11;
  trial.regime = SmallRegime();
  const auto outcome = chaos::RunTrial(trial, FastParams());
  EXPECT_TRUE(outcome.violations.empty())
      << chaos::FormatViolations(outcome.violations);
  EXPECT_GT(outcome.completed, 0u);
}

// The seeded known violation: a zero give-up timer under total loss
// strands the closed loop — request conservation catches the wedge.
TEST(ChaosTrial, ZeroTimeoutUnderLossViolatesRequestConservation) {
  ChaosTrial trial;
  trial.seed = 11;
  trial.regime = SmallRegime();
  trial.regime.request_timeout_s = 0;
  trial.regime.retry_max = 0;
  const auto plan = FaultPlan::Parse("loss start=0.5 end=1.5 p=1\n");
  ASSERT_TRUE(plan.ok());
  trial.plan = plan.value();
  const auto outcome = chaos::RunTrial(trial, FastParams());
  EXPECT_TRUE(HasInvariant(outcome.violations, "request-conservation"))
      << chaos::FormatViolations(outcome.violations);
  EXPECT_NE(DetailOf(outcome.violations, "request-conservation")
                .find("client"),
            std::string::npos);
}

TEST(ChaosTrial, UnarmablePlanIsItselfAViolation) {
  ChaosTrial trial;
  trial.seed = 11;
  trial.regime = SmallRegime();
  const auto plan = FaultPlan::Parse("crash at=1 target=no_such_service\n");
  ASSERT_TRUE(plan.ok());
  trial.plan = plan.value();
  const auto outcome = chaos::RunTrial(trial, FastParams());
  ASSERT_TRUE(HasInvariant(outcome.violations, "fault-plan-arm"));
}

TEST(InvariantChecker, DetectsLeakedClaim) {
  ScenarioConfig config;
  config.machines = 100;
  config.clusters = 1;
  config.clients = 4;
  config.seed = 11;
  SimScenario scenario(std::move(config));
  scenario.RunUntil(Seconds(2));

  InvariantChecker checker;
  const InvariantChecker::Options options;
  EXPECT_FALSE(HasInvariant(checker.Check(scenario, options), "leaked-claim"));

  // Forge a claim no live pool instance owns.
  db::MachineId victim = 0;
  scenario.database().ForEach([&victim](const db::MachineRecord& record) {
    if (victim == 0) victim = record.id;
  });
  ASSERT_NE(victim, 0u);
  ASSERT_TRUE(scenario.database()
                  .Update(victim,
                          [](db::MachineRecord& record) {
                            record.taken_by = "ghost-pool";
                          })
                  .ok());

  const auto violations = checker.Check(scenario, options);
  ASSERT_TRUE(HasInvariant(violations, "leaked-claim"));
  EXPECT_NE(DetailOf(violations, "leaked-claim").find("ghost-pool"),
            std::string::npos);
}

TEST(InvariantChecker, DetectsLeakedSessionAndHeldAllocation) {
  ScenarioConfig config;
  config.machines = 100;
  config.clusters = 1;
  config.clients = 4;
  config.seed = 11;
  // Jobs that outlive the run: allocations never release, so pools hold
  // open sessions and clients hold allocations at drain time.
  config.job_duration = [](Rng&) { return Seconds(500); };
  config.client_horizon = Seconds(2);
  SimScenario scenario(std::move(config));
  scenario.RunUntil(Seconds(5));

  InvariantChecker checker;
  const auto violations = checker.Check(scenario, InvariantChecker::Options{});
  EXPECT_TRUE(HasInvariant(violations, "leaked-session"))
      << chaos::FormatViolations(violations);
  EXPECT_NE(DetailOf(violations, "request-conservation").find("holds"),
            std::string::npos);
}

TEST(InvariantChecker, DetectsDivergedReplicaGroup) {
  ScenarioConfig config;
  config.machines = 100;
  config.clusters = 1;
  config.clients = 4;
  config.directory_replicas = 2;
  config.seed = 11;
  SimScenario scenario(std::move(config));
  scenario.RunUntil(Seconds(2));

  // Crash and immediately restore a replica: it comes back empty, so the
  // group is diverged until its next anti-entropy pull — which the
  // checker must flag when judged before that pull.
  ASSERT_NE(scenario.replica_group(), nullptr);
  scenario.replica_group()->Crash(0);
  scenario.replica_group()->Restore(0);
  InvariantChecker checker;
  const auto violations = checker.Check(scenario, InvariantChecker::Options{});
  EXPECT_TRUE(HasInvariant(violations, "replica-convergence"))
      << chaos::FormatViolations(violations);
}

// --- shrinker ---

TEST(Shrinker, ConvergesToTheMinimalFailingPlan) {
  ChaosTrial trial;
  trial.seed = 11;
  trial.regime = SmallRegime();
  trial.regime.request_timeout_s = 0;
  trial.regime.retry_max = 0;
  // Only the loss window causes the wedge; the crash and the churn are
  // noise the shrinker must strip.
  const auto plan = FaultPlan::Parse(
      "loss start=0.5 end=1.5 p=0.9\n"
      "crash at=0.6 target=machines count=8 downtime=0.2\n"
      "churn start=0.5 end=1.4 rate=2 downtime=0.1 target=machines\n");
  ASSERT_TRUE(plan.ok());
  trial.plan = plan.value();

  const TrialParams params = FastParams();
  const Shrinker shrinker(
      [&params](const ChaosTrial& candidate) {
        return chaos::RunTrial(candidate, params).violations;
      },
      48);
  const Shrinker::Result result = shrinker.Shrink(trial);
  ASSERT_TRUE(result.reproduced);
  EXPECT_EQ(result.invariant, "request-conservation");
  ASSERT_EQ(result.trial.plan.events.size(), 1u);
  EXPECT_EQ(result.trial.plan.events[0].kind, FaultKind::kLoss);
  EXPECT_GT(result.runs, 1u);
  // The accepted plan is serialization-stable by construction.
  const auto reparsed = FaultPlan::Parse(result.trial.plan.Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value(), result.trial.plan);
}

TEST(Shrinker, ReportsUnreproducedWhenTheTrialIsClean) {
  ChaosTrial trial;
  trial.seed = 11;
  trial.regime = SmallRegime();
  std::size_t calls = 0;
  const Shrinker shrinker(
      [&calls](const ChaosTrial&) {
        ++calls;
        return std::vector<Violation>{};
      },
      8);
  const Shrinker::Result result = shrinker.Shrink(trial);
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(calls, 1u);
}

// --- deterministic replay and the repro bundle ---

TEST(ChaosTrial, ReplaysByteIdentically) {
  const ChaosPlanGenerator generator(ChaosRanges{},
                                     chaos::ActiveWindowSeconds(FastParams()));
  const ChaosTrial trial = generator.Generate(7);
  const auto first = chaos::RunTrial(trial, FastParams());
  const auto second = chaos::RunTrial(trial, FastParams());
  EXPECT_EQ(first.violations, second.violations);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.failures, second.failures);
  EXPECT_EQ(first.lost, second.lost);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_DOUBLE_EQ(first.mean_s, second.mean_s);
}

TEST(ChaosTrial, ReproBundleCarriesTheFullTrial) {
  const ChaosPlanGenerator generator(ChaosRanges{}, 8.0);
  const ChaosTrial trial = generator.Generate(7);
  TrialParams params;
  params.time_scale = 0.2;
  params.quiesce_floor_s = 1.5;

  const auto config = Config::Parse(chaos::ReproBundleText(trial, params));
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->GetOr("scenario", ""), "chaos_cell");
  EXPECT_EQ(config->GetInt("seed", 0), 7);
  EXPECT_DOUBLE_EQ(config->GetDouble("time-scale", 0), 0.2);
  EXPECT_DOUBLE_EQ(config->GetDouble("quiesce", 0), 1.5);

  const auto plan = FaultPlan::FromConfig(config.value());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value(), trial.plan);
  const auto regime = WorkloadRegime::Parse(config->GetOr("regime", ""));
  ASSERT_TRUE(regime.ok()) << regime.status().ToString();
  EXPECT_EQ(regime.value(), trial.regime);
}

TEST(ChaosCell, RegisteredScenarioReplaysATrial) {
  const ScenarioInfo* info = ScenarioRegistry::Instance().Find("chaos_cell");
  ASSERT_NE(info, nullptr);
  ScenarioRunOptions options;
  options.seed = 11;
  options.time_scale = 0.2;
  options.regime_text = SmallRegime().Serialize();
  const ScenarioReport report = info->run(options);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.note, "no invariant violations");
}

}  // namespace
}  // namespace actyp
