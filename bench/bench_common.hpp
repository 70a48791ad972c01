// Shared helpers for the figure/ablation scenarios: run one simulated
// measurement cell, apply driver overrides, and build report cells.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
#include "profile/trace_assembler.hpp"
#include "workload/client.hpp"

namespace actyp::bench {

// Metric groups, in the order a cell's metric list holds them. A
// scenario reports a cell by selecting a union of groups, or single
// metrics by name.
enum MetricGroup : unsigned {
  kResponse = 1u << 0,  // mean_s p50_s p95_s completed failures
  kStages = 1u << 1,    // <stage>_p50_s/_p95_s/_p99_s (profiled runs)
  kTrace = 1u << 2,     // tail attribution digest (profiled runs)
  kFault = 1u << 3,     // success rate, lost messages, client retries
  kChurn = 1u << 4,     // injected machine and service crashes
  kReplica = 1u << 5,   // replicated-directory observables
  kEngine = 1u << 6,    // selection and refresh cost
  kPool = 1u << 7,      // placement and on-demand creation counters
};

// The standard report: the response metrics plus, on profiled runs, the
// per-stage percentiles and the trace digest. An unprofiled run lists
// neither, so its report is exactly the five response metrics, the
// pre-profiler output.
inline constexpr unsigned kStandard = kResponse | kStages | kTrace;

// One cell's metrics as one ordered (name, value) list, each metric
// named once, where its value is read.
class CellMetrics {
 public:
  void Add(MetricGroup group, std::string name, double value) {
    entries_.push_back({group, std::move(name), value});
  }

  // The response group, from any client collector.
  void AddResponse(const workload::ResponseCollector& collector) {
    Add(kResponse, "mean_s", collector.response_stats().mean());
    Add(kResponse, "p50_s", collector.QuantileSeconds(0.50));
    Add(kResponse, "p95_s", collector.QuantileSeconds(0.95));
    Add(kResponse, "completed", static_cast<double>(collector.completed()));
    Add(kResponse, "failures", static_cast<double>(collector.failures()));
  }

  // The stage group: p50/p95/p99 of every stage (see profile::StageName).
  void AddStages(const profile::StageProfiler& profiler) {
    for (std::size_t i = 0; i < profile::kStageCount; ++i) {
      const auto stage = static_cast<profile::Stage>(i);
      const std::string name(profile::StageName(stage));
      const profile::StageSummary summary = profiler.Summary(stage);
      Add(kStages, name + "_p50_s", summary.p50_s);
      Add(kStages, name + "_p95_s", summary.p95_s);
      Add(kStages, name + "_p99_s", summary.p99_s);
    }
  }

  // Appends every metric of the selected groups to the cell, in list
  // order.
  void Select(unsigned groups, ScenarioCell* cell) const {
    for (const Entry& entry : entries_) {
      if ((entry.group & groups) != 0) {
        cell->metrics.emplace_back(entry.name, entry.value);
      }
    }
  }

  // Appends the named metrics in the order given. A name the list does
  // not hold (a stage metric of an unprofiled run) appends nothing.
  void Select(std::initializer_list<std::string_view> names,
              ScenarioCell* cell) const {
    for (const std::string_view name : names) {
      for (const Entry& entry : entries_) {
        if (entry.name == name) {
          cell->metrics.emplace_back(entry.name, entry.value);
          break;
        }
      }
    }
  }

 private:
  struct Entry {
    MetricGroup group;
    std::string name;
    double value;
  };
  std::vector<Entry> entries_;
};

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

// Lists a finished scenario's metrics, in report order: response, the
// profiled stage/trace block, then fault, churn, replica, engine and
// pool metrics. All of them are deterministic functions of the seed.
inline CellMetrics CollectCell(SimScenario& scenario) {
  CellMetrics metrics;
  const workload::ResponseCollector& collector = scenario.collector();
  metrics.AddResponse(collector);
  if (const profile::StageProfiler* profiler = scenario.profiler()) {
    metrics.AddStages(*profiler);
    // Tail attribution over the traces still assembled in the ring
    // window (the ring capacity bounds the window): which stage
    // dominated the slowest traces (stage index; -1 = no traces), and
    // each handling stage's share of the tail's attributed time. The
    // umbrella client_issue span and the background stages never appear
    // in request waterfalls, so only the five handling stages report.
    const profile::TailReport tail = profile::TraceAssembler::Tail(
        profile::TraceAssembler::Assemble(profiler->RingSnapshot())
            .requests);
    metrics.Add(kTrace, "trace_count", static_cast<double>(tail.trace_count));
    metrics.Add(kTrace, "slow_trace_top_stage",
                static_cast<double>(tail.slow_top_stage));
    for (const profile::Stage stage :
         {profile::Stage::kQmAdmit, profile::Stage::kPmDelegate,
          profile::Stage::kPoolSelect, profile::Stage::kReintegrate,
          profile::Stage::kReply}) {
      metrics.Add(kTrace,
                  std::string(profile::StageName(stage)) + "_tail_share",
                  tail.tail_share[static_cast<std::size_t>(stage)]);
    }
  }

  const std::uint64_t completed = collector.completed();
  const std::uint64_t attempts = completed + collector.failures();
  metrics.Add(kFault, "success_rate",
              attempts == 0 ? 0.0
                            : static_cast<double>(completed) /
                                  static_cast<double>(attempts));
  metrics.Add(kFault, "lost",
              static_cast<double>(scenario.network().lost_messages() +
                                  scenario.network().partition_dropped()));
  metrics.Add(kFault, "retries",
              static_cast<double>(scenario.total_client_retries()));

  const fault::FaultStats& faults = scenario.fault_stats();
  metrics.Add(kChurn, "machines_crashed",
              static_cast<double>(faults.machines_crashed));
  metrics.Add(kChurn, "services_crashed",
              static_cast<double>(faults.services_crashed +
                                  faults.pools_killed));

  const replica::ReplicaGroupStats replicas = scenario.replica_stats();
  metrics.Add(kReplica, "sync_bytes",
              static_cast<double>(replicas.sync_bytes));
  metrics.Add(kReplica, "full_syncs",
              static_cast<double>(replicas.full_syncs));
  metrics.Add(kReplica, "failovers", static_cast<double>(replicas.failovers));
  metrics.Add(kReplica, "convergences",
              static_cast<double>(replicas.convergences));
  metrics.Add(kReplica, "tombstones_gc",
              static_cast<double>(replicas.tombstones_gc));
  metrics.Add(kReplica, "max_staleness_s", replicas.max_staleness_s);
  metrics.Add(kReplica, "converge_time_s", replicas.converge_time_s);

  // Selection cost is entries examined per allocation (the
  // indexed-vs-linear headroom); refresh cost is cache entries re-read
  // per periodic tick (with dirty-id refresh it tracks monitor churn,
  // not cache size).
  const pipeline::PoolStats pools = scenario.TotalPoolStats();
  metrics.Add(kEngine, "sel_cost",
              pools.allocations == 0
                  ? 0.0
                  : static_cast<double>(pools.entries_examined) /
                        static_cast<double>(pools.allocations));
  metrics.Add(kEngine, "entries_refreshed",
              static_cast<double>(pools.entries_refreshed));
  metrics.Add(kEngine, "refresh_cost",
              pools.refresh_ticks == 0
                  ? 0.0
                  : static_cast<double>(pools.entries_refreshed) /
                        static_cast<double>(pools.refresh_ticks));
  metrics.Add(kPool, "oversubscribed",
              static_cast<double>(pools.oversubscribed));
  metrics.Add(kPool, "entries_examined",
              static_cast<double>(pools.entries_examined));
  metrics.Add(kPool, "pools_created",
              static_cast<double>(scenario.proxy_stats().pools_created));
  return metrics;
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
inline CellMetrics RunCell(ScenarioConfig config,
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

// --- parallel sweep execution ---

// One queued sweep cell: builds its own SimScenario (kernel, network,
// RNG) from a config whose seed was already fixed by CellSeed, runs it,
// and returns the finished report cell.
using CellTask = std::function<ScenarioCell()>;

// Runs the queued cells — serially for options.jobs <= 1, concurrently
// on a ThreadPool otherwise — and appends them to the report in queue
// order. Cells share no mutable state (each task owns its simulation),
// so the report is byte-identical whatever the worker count.
inline void RunCellTasks(const ScenarioRunOptions& options,
                         std::vector<CellTask> tasks,
                         ScenarioReport* report) {
  std::vector<ScenarioCell> cells(tasks.size());
  const std::size_t jobs = std::min(options.jobs, tasks.size());
  if (jobs <= 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) cells[i] = tasks[i]();
  } else {
    ThreadPool pool(jobs);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      pool.Submit([&cells, &tasks, i] { cells[i] = tasks[i](); });
    }
    pool.Drain();
  }
  report->cells.reserve(report->cells.size() + cells.size());
  for (auto& cell : cells) report->cells.push_back(std::move(cell));
}

}  // namespace actyp::bench
