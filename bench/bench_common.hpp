// The experiment harness behind every registered scenario. A scenario
// queues its cells on one Sweep and returns Sweep::Run's report; the
// registrar stamps the report with the scenario's name. A RunCell cell
// applies the driver's overrides (ApplyFaults), measures one SimScenario
// and picks its row from the scenario's metric list
// (actyp/cell_metrics.hpp); a hand-built cell runs its own simulation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "actyp/cell_metrics.hpp"
#include "actyp/scenario.hpp"
#include "actyp/scenario_registry.hpp"
#include "common/logging.hpp"
#include "common/seed_sink.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "profile/metrics_exporter.hpp"
#include "profile/stage_profiler.hpp"

namespace actyp::bench {

// Merges the driver's fault, replication, and retry overrides (--loss /
// --churn-rate / --fault-plan / --replicas / --sync-period /
// --retry-max / --retry-backoff) into a scenario config. Lossy or
// churny runs also need a client give-up timer, or the closed loop
// deadlocks on the first dropped reply — default one when the scenario
// did not set its own.
inline void ApplyFaults(const ScenarioRunOptions& options,
                        ScenarioConfig* config) {
  if (options.replicas) config->directory_replicas = *options.replicas;
  // Durations scale with --time-scale, exactly like the scenarios'
  // fault schedules and their own defaults for these knobs — so the
  // flags compose with smoke-run scaling instead of fighting it.
  if (options.sync_period_s) {
    config->directory_sync_period =
        Seconds(*options.sync_period_s * options.time_scale);
  }
  if (options.retry_max) config->retry_max = *options.retry_max;
  if (options.retry_backoff_s) {
    config->retry_backoff =
        Seconds(*options.retry_backoff_s * options.time_scale);
  }
  if (options.loss) config->message_loss_probability = *options.loss;
  if (!options.fault_plan_text.empty()) {
    auto plan = fault::FaultPlan::Parse(options.fault_plan_text);
    if (plan.ok()) {
      for (auto& event : plan->events) {
        config->fault_plan.events.push_back(std::move(event));
      }
    } else {
      // The driver validates before running; other callers must not get
      // a silently fault-free run from a bad plan.
      ACTYP_WARN << "fault plan ignored: " << plan.status().ToString();
    }
  }
  if (options.churn_rate && *options.churn_rate > 0) {
    config->fault_plan.AddChurn(*options.churn_rate, Seconds(5.0));
  }
  if ((config->message_loss_probability > 0 ||
       !config->fault_plan.empty()) &&
      config->client_request_timeout == 0) {
    // Scaled like the measurement window, so smoke runs still recover.
    config->client_request_timeout =
        Seconds((config->wan ? 5.0 : 2.0) * options.time_scale);
  }
}

// Simulated duration scaled by the driver's --time-scale.
inline SimDuration ScaledSeconds(const ScenarioRunOptions& options,
                                 double seconds) {
  return Seconds(seconds * options.time_scale);
}

// One --metrics-interval snapshot of a running cell at sim time `t`:
// throughput counters and — when profiled — the per-stage counts and
// p95s so far.
inline profile::MetricCell StreamSnapshot(SimScenario& scenario, SimTime t) {
  profile::MetricCell cell;
  cell.scenario = "stream";
  cell.labels.emplace_back("seed",
                           std::to_string(scenario.config().seed));
  cell.values.emplace_back("t_s", ToSeconds(t));
  cell.values.emplace_back(
      "completed", static_cast<double>(scenario.collector().completed()));
  cell.values.emplace_back(
      "failures", static_cast<double>(scenario.collector().failures()));
  if (const profile::StageProfiler* profiler = scenario.profiler()) {
    for (std::size_t i = 0; i < profile::kStageCount; ++i) {
      const auto stage = static_cast<profile::Stage>(i);
      const profile::StageSummary summary = profiler->Summary(stage);
      const std::string name(profile::StageName(stage));
      cell.values.emplace_back(name + "_count",
                               static_cast<double>(summary.count));
      cell.values.emplace_back(name + "_p95_s", summary.p95_s);
    }
  }
  return cell;
}

// A sweep dimension collapses to the override when the driver pins it.
inline std::vector<std::size_t> SweepOr(
    const std::optional<std::size_t>& pinned,
    std::initializer_list<std::size_t> defaults) {
  if (pinned) return {*pinned};
  return defaults;
}

// Per-cell seed: the driver's --seed replaces the scenario's base seed,
// the per-cell offset keeps cells decorrelated either way.
inline std::uint64_t CellSeed(const ScenarioRunOptions& options,
                              std::uint64_t base, std::uint64_t offset) {
  return options.seed.value_or(base) + offset;
}

// --- the one cell runner ---

// A scenario's sweep: its cells, queued in report order, then run into
// its report. Each cell owns its simulation (kernel, network and RNG,
// seeded from a config whose seed CellSeed fixed), so cells share no
// mutable state: Run writes each row at its queue index, and the report
// is byte-identical for any --jobs.
class Sweep {
 public:
  // A hand-built cell: runs its own simulation and returns its row.
  using Task = std::function<ScenarioCell()>;
  // Appends the cell's chosen metrics to its row.
  using Pick = std::function<void(const CellMetrics&, ScenarioCell*)>;

  Sweep(const ScenarioRunOptions& options, std::string title)
      : options_(options), title_(std::move(title)) {}

  // Queues one RunCell cell over `config`: `warmup_s` then `measure_s`
  // simulated seconds, both scaled by --time-scale. Its row is `row`'s
  // labels and dims, then the metrics of `groups`.
  void Add(ScenarioConfig config, ScenarioCell row, unsigned groups,
           double warmup_s = 3, double measure_s = 15) {
    Add(std::move(config), std::move(row),
        [groups](const CellMetrics& metrics, ScenarioCell* cell) {
          metrics.Select(groups, cell);
        },
        warmup_s, measure_s);
  }

  // The same, with the row's metrics chosen by `pick`.
  void Add(ScenarioConfig config, ScenarioCell row, Pick pick,
           double warmup_s = 3, double measure_s = 15) {
    Add([&options = options_, config = std::move(config),
         row = std::move(row), pick = std::move(pick), warmup_s, measure_s] {
      ScenarioCell cell = row;
      pick(RunCell(config, options, ScaledSeconds(options, warmup_s),
                   ScaledSeconds(options, measure_s)),
           &cell);
      return cell;
    });
  }

  void Add(Task task) { tasks_.push_back(std::move(task)); }

  // Runs the queue (serially for --jobs <= 1, on a ThreadPool
  // otherwise) and returns the report: the title, one row per cell in
  // queue order, and `note`. The registrar stamps the scenario name.
  ScenarioReport Run(std::string note) {
    ScenarioReport report;
    report.title = std::move(title_);
    report.cells.resize(tasks_.size());
    const std::size_t jobs = std::min(options_.jobs, tasks_.size());
    if (jobs <= 1) {
      for (std::size_t i = 0; i < tasks_.size(); ++i) {
        report.cells[i] = tasks_[i]();
      }
    } else {
      ThreadPool pool(jobs);
      for (std::size_t i = 0; i < tasks_.size(); ++i) {
        pool.Submit([this, &report, i] { report.cells[i] = tasks_[i](); });
      }
      pool.Drain();
    }
    report.note = std::move(note);
    return report;
  }

 private:
  // Runs one scenario cell: applies the driver's overrides, warms up,
  // measures, and lists the cell's metrics. Every scenario that builds a
  // SimScenario routes through this, so --loss / --churn-rate /
  // --fault-plan compose with any figure or ablation. It also carries the
  // observability wiring: the --telemetry-out gauge samples and the
  // --metrics-interval snapshots, each taken at its own interval
  // boundaries by Measure's one chunk loop (chunking never reorders
  // events, so neither perturbs the report), and the --trace-out span
  // ring and --flight-out events, captured before the scenario is torn
  // down. Every sink is keyed by the cell seed, so the files are
  // byte-identical for any --jobs / --cell-jobs.
  static CellMetrics RunCell(ScenarioConfig config,
                             const ScenarioRunOptions& options,
                             SimDuration warmup, SimDuration measure) {
    ApplyFaults(options, &config);
    config.profile = options.profile;
    config.cell_jobs = options.cell_jobs;
    if (options.profile_ring_capacity) {
      config.profile_ring_capacity = *options.profile_ring_capacity;
    }
    config.flight_recorder = options.flight_sink != nullptr;
    SimScenario scenario(std::move(config));
    const auto every = [&options](const SeedSink<profile::MetricCell>* sink,
                                  double interval_s) -> SimDuration {
      if (sink == nullptr || interval_s <= 0) return 0;
      return std::max<SimDuration>(ScaledSeconds(options, interval_s), 1);
    };
    std::vector<profile::MetricCell> telemetry;
    std::vector<profile::MetricCell> snapshots;
    const auto gauges = [&](SimTime t) {
      telemetry.push_back(obs::TelemetrySample(scenario, t));
    };
    const auto progress = [&](SimTime t) {
      snapshots.push_back(StreamSnapshot(scenario, t));
    };
    scenario.Measure(
        warmup, measure,
        {{every(options.telemetry_sink, options.telemetry_interval_s), gauges},
         {every(options.metrics_sink, options.metrics_interval_s), progress}});
    if (options.quiesce_s > 0) {
      // --quiesce: drain past the measurement window so the collected
      // success rate / convergence state reflect the recovered system,
      // not the mid-disruption snapshot. 0 leaves the path untouched.
      scenario.RunUntil(scenario.kernel().Now() +
                        ScaledSeconds(options, options.quiesce_s));
    }
    CellMetrics metrics = CollectCell(scenario);
    const std::uint64_t seed = scenario.config().seed;
    if (options.telemetry_sink != nullptr) {
      options.telemetry_sink->Add(seed, std::move(telemetry));
    }
    if (options.metrics_sink != nullptr) {
      options.metrics_sink->Add(seed, std::move(snapshots));
    }
    if (options.trace_sink != nullptr && scenario.profiler() != nullptr) {
      options.trace_sink->Add(seed, scenario.profiler()->RingSnapshot());
    }
    if (options.flight_sink != nullptr) {
      options.flight_sink->Add(seed, scenario.FlightSnapshot());
    }
    return metrics;
  }

  const ScenarioRunOptions& options_;
  std::string title_;
  std::vector<Task> tasks_;
};

}  // namespace actyp::bench
