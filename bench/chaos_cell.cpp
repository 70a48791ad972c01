// chaos_cell: one chaos trial as a registered scenario — the replay
// vehicle for chaos repro bundles (`actyp_sim --config repro.conf`).
// A bundle pins the seed, the workload regime (`regime = ...` line),
// the fault plan ([fault] section), the time scale, and the quiesce
// floor; the cell re-runs chaos::RunTrial under exactly those inputs
// and reports the violation count plus a digest note, so a violation
// found by actyp_chaos replays byte-identically here.
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "chaos/trial.hpp"
#include "chaos/workload_regime.hpp"

namespace actyp {
namespace {

ScenarioReport RunChaosCell(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.title = "Chaos — single trial replay (regime x fault plan x seed)";

  chaos::ChaosTrial trial;
  trial.seed = options.seed.value_or(20010611);
  if (!options.regime_text.empty()) {
    const auto regime = chaos::WorkloadRegime::Parse(options.regime_text);
    if (!regime.ok()) {
      report.note = "bad regime: " + regime.status().ToString();
      return report;
    }
    trial.regime = regime.value();
  }
  if (options.machines) trial.regime.machines = *options.machines;
  if (options.clients) trial.regime.clients = *options.clients;
  if (!options.fault_plan_text.empty()) {
    auto plan = fault::FaultPlan::Parse(options.fault_plan_text);
    if (!plan.ok()) {
      report.note = "bad fault plan: " + plan.status().ToString();
      return report;
    }
    trial.plan = std::move(plan.value());
  }

  chaos::TrialParams params;
  params.time_scale = options.time_scale;
  params.quiesce_floor_s = options.quiesce_s;

  const chaos::TrialOutcome outcome = chaos::RunTrial(trial, params);

  ScenarioCell cell;
  cell.labels.emplace_back("seed", std::to_string(trial.seed));
  cell.dims.emplace_back("events",
                         static_cast<double>(trial.plan.events.size()));
  outcome.metrics.Select({"mean_s", "p50_s", "p95_s", "completed",
                          "failures", "success_rate", "lost", "retries"},
                         &cell);
  cell.metrics.emplace_back("violations",
                            static_cast<double>(outcome.violations.size()));
  report.cells.push_back(std::move(cell));
  report.note = outcome.violations.empty()
                    ? "no invariant violations"
                    : chaos::FormatViolations(outcome.violations);
  return report;
}

const ScenarioRegistrar kRegistrar(
    "chaos_cell",
    "Replay one chaos trial (seed + regime + fault plan) with invariants",
    RunChaosCell);

}  // namespace
}  // namespace actyp
