#include "chaos/trial.hpp"

#include <algorithm>
#include <cstdio>

#include "actyp/scenario.hpp"
#include "common/config.hpp"
#include "obs/telemetry.hpp"

namespace actyp::chaos {
namespace {

std::string FormatDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace

double ActiveWindowSeconds(const TrialParams& params) {
  return (params.warmup_s + params.quiesce_fraction * params.measure_s) *
         params.time_scale;
}

bool PlanCanLoseMessages(const fault::FaultPlan& plan) {
  for (const fault::FaultEvent& event : plan.events) {
    switch (event.kind) {
      case fault::FaultKind::kLoss:
      case fault::FaultKind::kPartition:
      case fault::FaultKind::kSiteCrash:
      case fault::FaultKind::kSiteRestore:
        return true;
      case fault::FaultKind::kCrash:
      case fault::FaultKind::kChurn:
        // A crashing service drops whatever was queued at it; pure
        // machine churn keeps every message deliverable.
        if (event.target != "machines") return true;
        break;
      case fault::FaultKind::kLatency:
        break;  // delays, never drops
    }
  }
  return false;
}

double DrainSeconds(const ChaosTrial& trial, const TrialParams& params) {
  const WorkloadRegime& regime = trial.regime;
  // Worst-case interaction tail: every retry burns a full give-up timer
  // plus a jittered exponential backoff (<= 2 x base x 2^attempt).
  double backoff = 0.0;
  double base = std::max(regime.retry_backoff_s, 0.001);
  for (std::size_t attempt = 0; attempt < regime.retry_max; ++attempt) {
    backoff += 2.0 * base;
    base *= 2.0;
  }
  double drain =
      static_cast<double>(regime.retry_max + 1) * regime.request_timeout_s +
      backoff + regime.think_time_s + 1.0;
  if (regime.directory_replicas > 1) {
    drain = std::max(drain, params.invariants.convergence_k *
                                    regime.sync_period_s +
                                1.0);
  }
  return std::max(drain * params.time_scale,
                  params.quiesce_floor_s * params.time_scale);
}

TrialOutcome RunTrial(const ChaosTrial& trial, const TrialParams& params,
                      TrialCapture* capture) {
  // Build the scenario config directly (not through bench::ApplyFaults,
  // whose lossy-run timeout defaulting would mask the hostile
  // zero-timeout regimes the generator emits on purpose).
  ScenarioConfig config;
  trial.regime.ApplyTo(&config, params.time_scale);
  config.seed = trial.seed;
  config.fault_plan = trial.plan;
  config.profile = false;  // trials are about invariants, not spans
  // A post-mortem capture arms the flight recorder; it never touches
  // the seeded RNG streams, so the trial outcome stays byte-identical.
  // The window is widened well past the driver default so the fault
  // strikes survive to the end of the drain even on busy trials.
  config.flight_recorder = capture != nullptr;
  if (capture != nullptr) config.flight_capacity = 65536;
  const SimDuration warmup = Seconds(params.warmup_s * params.time_scale);
  const SimDuration measure = Seconds(params.measure_s * params.time_scale);
  config.client_horizon = warmup + measure;

  SimScenario scenario(std::move(config));

  TrialOutcome outcome;
  if (!scenario.fault_status().ok()) {
    // An unarmable plan is itself a finding (unknown site, missing
    // hook): surface it instead of reporting a silently fault-free run.
    outcome.violations.push_back(
        {"fault-plan-arm", scenario.fault_status().ToString()});
    outcome.metrics = CollectCell(scenario);
    return outcome;
  }

  InvariantChecker::Options invariants = params.invariants;
  if (PlanCanLoseMessages(trial.plan) ||
      scenario.config().message_loss_probability > 0) {
    invariants.check_sessions = false;  // lost releases leak by design
  }
  if (scenario.config().directory_replicas > 1) {
    // Stale replica lookups can defer the last-instance claim release.
    invariants.check_claims = false;
  }

  // A capture samples the gauges every ~1/50 of the measure window,
  // from the warmup boundary through the end of the drain.
  std::vector<SimScenario::Sampler> samplers;
  if (capture != nullptr) {
    samplers.push_back(
        {std::max<SimDuration>(
             Seconds(params.measure_s * params.time_scale / 50.0), 1),
         [&](SimTime t) {
           capture->telemetry.push_back(obs::TelemetrySample(scenario, t));
         }});
  }
  InvariantChecker checker;
  scenario.RunUntil(warmup);
  // Measure's reset, keeping the flight ring: generated faults often
  // strike during warmup, and the post-mortem needs those events.
  scenario.ResetMeasurement();
  for (const SimScenario::Sampler& sampler : samplers) sampler.sample(warmup);
  scenario.RunUntil(warmup + Seconds(params.quiesce_fraction *
                                     params.measure_s * params.time_scale),
                    samplers);
  checker.BeginQuiesce(scenario);  // generated faults all recovered here
  scenario.RunUntil(warmup + measure + Seconds(DrainSeconds(trial, params)),
                    samplers);
  if (capture != nullptr) capture->flight = scenario.FlightSnapshot();
  outcome.violations = checker.Check(scenario, invariants);
  outcome.metrics = CollectCell(scenario);
  return outcome;
}

std::string ReproBundleText(const ChaosTrial& trial,
                            const TrialParams& params) {
  Config config = trial.plan.ToConfig();
  config.Set("scenario", "chaos_cell");
  config.Set("seed", std::to_string(trial.seed));
  config.Set("time-scale", FormatDouble(params.time_scale));
  config.Set("quiesce", FormatDouble(params.quiesce_floor_s));
  config.Set("regime", trial.regime.Serialize());
  config.Set("json", "true");
  return config.Serialize();
}

}  // namespace actyp::chaos
