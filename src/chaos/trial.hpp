// chaos::RunTrial — deterministically execute one chaos trial (a
// WorkloadRegime crossed with a FaultPlan under one seed) and judge the
// invariant catalogue at drain time.
//
// Trial timeline (all simulated, scaled by `time_scale`):
//
//   0 ──warmup──┬──────measure──────────────┬───drain────┤ Check()
//               │          ▲ quiesce boundary            │
//               │  (warmup + quiesce_fraction x measure) │
//   faults may strike/recover up to the quiesce boundary;
//   clients stop issuing at the measure end (client_horizon);
//   the drain is sized so every in-flight interaction reaches a
//   terminal state and replicas converge before invariants are judged.
//
// The trial advances through SimScenario::RunUntil(end, samplers), the
// loop behind Measure, and reports through the scenario cells' metric
// list (CollectCell), so a trial row and a sweep row name and compute
// every metric the same way.
#pragma once

#include <string>
#include <vector>

#include "actyp/cell_metrics.hpp"
#include "chaos/chaos_plan.hpp"
#include "chaos/invariants.hpp"
#include "obs/flight_recorder.hpp"
#include "profile/metrics_exporter.hpp"

namespace actyp::chaos {

struct TrialParams {
  double time_scale = 1.0;
  double warmup_s = 2.0;  // unscaled, like the bench cells
  double measure_s = 10.0;
  // Fraction of the measure window by which the generator guarantees
  // every fault has struck and recovered; BeginQuiesce snapshots there.
  double quiesce_fraction = 0.6;
  // Extra drain floor (the --quiesce knob) on top of the computed one.
  double quiesce_floor_s = 0.0;
  InvariantChecker::Options invariants;
};

struct TrialOutcome {
  std::vector<Violation> violations;
  // The trial's metric list, collected after the drain (all zeros when
  // the plan could not be armed).
  CellMetrics metrics;
};

// Absolute sim seconds (scaled) by which generated faults must have
// fully recovered — the generator's active window.
[[nodiscard]] double ActiveWindowSeconds(const TrialParams& params);

// Seconds of post-measurement drain: long enough for every in-flight
// interaction to reach a terminal state (give-up timer plus worst-case
// retry backoffs) and for the replica group to converge (k sync
// periods), never below the configured floor.
[[nodiscard]] double DrainSeconds(const ChaosTrial& trial,
                                  const TrialParams& params);

// True when the plan can drop messages (loss windows, partitions, site
// crashes, service/pool crashes) — a lost release leaks its session by
// design, so RunTrial gates the session audit on this.
[[nodiscard]] bool PlanCanLoseMessages(const fault::FaultPlan& plan);

// Observability capture of one trial: the gauge samples taken across
// the whole timeline (warmup end through drain) and the flight-recorder
// window that survived to the end of the run. Filled only when a
// capture is passed to RunTrial; recording draws nothing from the
// seeded RNG streams, so the outcome is byte-identical either way.
struct TrialCapture {
  std::vector<profile::MetricCell> telemetry;
  std::vector<obs::FlightEvent> flight;
};

[[nodiscard]] TrialOutcome RunTrial(const ChaosTrial& trial,
                                    const TrialParams& params,
                                    TrialCapture* capture = nullptr);

// Serializes trial + params into an `actyp_sim --config` experiment
// file (scenario=chaos_cell) that replays the trial byte-identically.
[[nodiscard]] std::string ReproBundleText(const ChaosTrial& trial,
                                          const TrialParams& params);

}  // namespace actyp::chaos
