// Shared helpers for the figure/ablation scenarios: run one simulated
// measurement cell, apply driver overrides, and build report cells.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "actyp/scenario.hpp"
#include "actyp/scenario_registry.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "profile/metrics_exporter.hpp"
#include "profile/stage_profiler.hpp"
#include "profile/trace_assembler.hpp"

namespace actyp::bench {

struct CellResult {
  double mean_s = 0;
  double p50_s = 0;
  double p95_s = 0;
  std::uint64_t completed = 0;
  std::uint64_t failures = 0;
  // Fault-regime observables (all zero on a healthy network).
  double success_rate = 0;  // completed / (completed + failures)
  std::uint64_t lost = 0;   // messages dropped by loss + partitions
  std::uint64_t machines_crashed = 0;
  std::uint64_t services_crashed = 0;
  std::uint64_t pools_created = 0;  // on-demand creations via the proxy
  // Engine observables for the scaling sweeps.
  std::uint64_t events = 0;          // kernel events executed (whole run)
  double wall_s = 0;                 // host wall-clock for the cell
  std::uint64_t allocations = 0;     // pool allocations granted
  std::uint64_t entries_examined = 0;  // selection cost across the run
  std::uint64_t entries_refreshed = 0;  // cache entries re-read on ticks
  std::uint64_t refresh_ticks = 0;      // periodic refresh sweeps run
  // Client retry policy (zero unless retry-max is set).
  std::uint64_t retries = 0;
  // Replicated-directory observables (all zero when --replicas <= 1).
  std::uint64_t sync_bytes = 0;      // anti-entropy wire bytes
  std::uint64_t full_syncs = 0;      // bounded-journal fallbacks
  std::uint64_t failovers = 0;       // reads/writes served off-site
  std::uint64_t convergences = 0;    // disruptions fully reconciled
  std::uint64_t tombstones_gc = 0;   // LWW tombstones garbage-collected
  double max_staleness_s = 0;        // worst replica lag behind the group
  double converge_time_s = 0;        // last disruption -> convergence
  // Per-stage latency digests (src/profile/), indexed by profile::Stage.
  // `profiled` is false when the run was built with profiling off, and
  // AppendMetrics then emits no stage metrics at all — the seed report.
  bool profiled = false;
  std::array<profile::StageSummary, profile::kStageCount> stages{};
  // Trace-derived tail attribution (profiled runs only): the per-request
  // traces assembled from the span ring's window, and which stage
  // dominated the slowest of them (index into profile::Stage; -1 when
  // the window held no complete trace).
  std::uint64_t trace_count = 0;
  int slow_trace_top_stage = -1;
  std::array<double, profile::kStageCount> tail_share{};
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

// Harvests a finished scenario into a CellResult (shared by both
// RunCell overloads; wall_start is when cell construction began).
inline CellResult CollectCell(
    SimScenario& scenario,
    std::chrono::steady_clock::time_point wall_start) {
  CellResult result;
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  result.events = scenario.total_events();
  result.mean_s = scenario.collector().response_stats().mean();
  result.p50_s = scenario.collector().QuantileSeconds(0.50);
  result.p95_s = scenario.collector().QuantileSeconds(0.95);
  result.completed = scenario.collector().completed();
  result.failures = scenario.collector().failures();
  const std::uint64_t attempts = result.completed + result.failures;
  result.success_rate =
      attempts == 0 ? 0.0
                    : static_cast<double>(result.completed) /
                          static_cast<double>(attempts);
  result.lost = scenario.network().lost_messages() +
                scenario.network().partition_dropped();
  result.machines_crashed = scenario.fault_stats().machines_crashed;
  result.services_crashed =
      scenario.fault_stats().services_crashed + scenario.fault_stats().pools_killed;
  result.pools_created = scenario.proxy_stats().pools_created;
  const auto pool_stats = scenario.TotalPoolStats();
  result.allocations = pool_stats.allocations;
  result.entries_examined = pool_stats.entries_examined;
  result.entries_refreshed = pool_stats.entries_refreshed;
  result.refresh_ticks = pool_stats.refresh_ticks;
  result.retries = scenario.total_client_retries();
  const auto replica_stats = scenario.replica_stats();
  result.sync_bytes = replica_stats.sync_bytes;
  result.full_syncs = replica_stats.full_syncs;
  result.failovers = replica_stats.failovers;
  result.convergences = replica_stats.convergences;
  result.tombstones_gc = replica_stats.tombstones_gc;
  result.max_staleness_s = replica_stats.max_staleness_s;
  result.converge_time_s = replica_stats.converge_time_s;
  if (const profile::StageProfiler* profiler = scenario.profiler()) {
    result.profiled = true;
    for (std::size_t i = 0; i < profile::kStageCount; ++i) {
      result.stages[i] =
          profiler->Summary(static_cast<profile::Stage>(i));
    }
    // Tail attribution over the traces still assembled in the ring
    // window — a deterministic function of the seed (and the ring
    // capacity, which bounds the window).
    const profile::AssembledTraces assembled =
        profile::TraceAssembler::Assemble(profiler->RingSnapshot());
    const profile::TailReport tail =
        profile::TraceAssembler::Tail(assembled.requests);
    result.trace_count = tail.trace_count;
    result.slow_trace_top_stage = tail.slow_top_stage;
    result.tail_share = tail.tail_share;
  }
  return result;
}

// Runs one scenario cell: warm up, reset the collector, measure.
inline CellResult RunCell(ScenarioConfig config,
                          SimDuration warmup = Seconds(3),
                          SimDuration measure = Seconds(15)) {
  const auto wall_start = std::chrono::steady_clock::now();
  SimScenario scenario(std::move(config));
  scenario.Measure(warmup, measure);
  return CollectCell(scenario, wall_start);
}

// One incremental streaming snapshot of a running cell: sim time,
// throughput counters, and — when profiled — the per-stage p95s so
// far. Emitted on the sim clock by the --metrics-interval hook.
inline profile::MetricCell StreamSnapshot(SimScenario& scenario) {
  profile::MetricCell cell;
  cell.scenario = "stream";
  cell.labels.emplace_back("seed",
                           std::to_string(scenario.config().seed));
  cell.values.emplace_back("t_s", ToSeconds(scenario.kernel().Now()));
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

// RunCell with the driver's fault overrides applied first; every
// scenario routes through this so --loss / --churn-rate / --fault-plan
// compose with any figure or ablation. This overload also carries the
// observability wiring: the --metrics-interval streaming timer (a
// self-re-arming kernel event — extra events never reorder existing
// ones under the kernel's (at, seq) tie-break, so arming it cannot
// perturb the simulation) and the --trace-out span capture, taken
// before the scenario is torn down.
inline CellResult RunCell(ScenarioConfig config,
                          const ScenarioRunOptions& options,
                          SimDuration warmup, SimDuration measure) {
  ApplyFaults(options, &config);
  config.profile = options.profile;
  config.cell_jobs = options.cell_jobs;
  if (options.profile_ring_capacity) {
    config.profile_ring_capacity = *options.profile_ring_capacity;
  }
  config.flight_recorder = options.flight_sink != nullptr;
  const auto wall_start = std::chrono::steady_clock::now();
  SimScenario scenario(std::move(config));
  if (options.metrics_streamer != nullptr && options.metrics_interval_s > 0 &&
      scenario.lp_mode()) {
    // The streaming tick executes on shard 0's kernel mid-window, where
    // reading the other shards' profilers would race their workers.
    ACTYP_WARN << "cell: --metrics-interval streaming disabled for "
                  "LP-parallel scenarios; final metrics still export";
  } else if (options.metrics_streamer != nullptr &&
             options.metrics_interval_s > 0) {
    const auto interval = std::max<SimDuration>(
        Seconds(options.metrics_interval_s * options.time_scale), 1);
    profile::MetricsStreamer* streamer = options.metrics_streamer;
    SimScenario* running = &scenario;
    // Only the scheduled events own the tick; the tick itself holds a
    // weak_ptr, so the pending event freed with the kernel frees it.
    auto tick = std::make_shared<std::function<void()>>();
    *tick = [weak = std::weak_ptr(tick), streamer, running, interval] {
      streamer->WriteCell(StreamSnapshot(*running));
      if (auto self = weak.lock()) {
        running->kernel().Schedule(interval, [self] { (*self)(); });
      }
    };
    scenario.kernel().Schedule(interval, [tick] { (*tick)(); });
  }
  if (options.telemetry_sink != nullptr && options.telemetry_interval_s > 0) {
    // Sampled measurement: the window advances in interval-sized chunks
    // and one gauge sample is taken at each boundary (workers idle).
    // Chunking never reorders events, so the report is unchanged.
    const auto interval = std::max<SimDuration>(
        Seconds(options.telemetry_interval_s * options.time_scale), 1);
    std::vector<profile::MetricCell> samples;
    scenario.Measure(warmup, measure, interval, [&](SimTime t) {
      samples.push_back(obs::TelemetrySample(scenario, t));
    });
    options.telemetry_sink->Add(scenario.config().seed, std::move(samples));
  } else {
    scenario.Measure(warmup, measure);
  }
  if (options.quiesce_s > 0) {
    // --quiesce: drain past the measurement window so the collected
    // success rate / convergence state reflect the recovered system,
    // not the mid-disruption snapshot. 0 leaves the path untouched.
    scenario.RunUntil(scenario.kernel().Now() +
                      Seconds(options.quiesce_s * options.time_scale));
  }
  CellResult result = CollectCell(scenario, wall_start);
  if (options.trace_sink != nullptr && scenario.profiler() != nullptr) {
    options.trace_sink->Add(scenario.config().seed,
                            scenario.profiler()->RingSnapshot());
  }
  if (options.flight_sink != nullptr) {
    options.flight_sink->Add(scenario.config().seed,
                             scenario.FlightSnapshot());
  }
  return result;
}

// A sweep dimension collapses to the override when the driver pins it.
inline std::vector<std::size_t> SweepOr(
    const std::optional<std::size_t>& pinned,
    std::initializer_list<std::size_t> defaults) {
  if (pinned) return {*pinned};
  return defaults;
}

// Simulated duration scaled by the driver's --time-scale.
inline SimDuration ScaledSeconds(const ScenarioRunOptions& options,
                                 double seconds) {
  return Seconds(seconds * options.time_scale);
}

// Per-cell seed: the driver's --seed replaces the scenario's base seed,
// the per-cell offset keeps cells decorrelated either way.
inline std::uint64_t CellSeed(const ScenarioRunOptions& options,
                              std::uint64_t base, std::uint64_t offset) {
  return options.seed.value_or(base) + offset;
}

// Appends the standard response-time metrics to a report cell, plus —
// when the run was profiled — the per-stage latency percentiles
// ("<stage>_p50_s" / "_p95_s" / "_p99_s" for the six pipeline hops;
// see profile::StageName). Unprofiled runs append exactly the legacy
// five metrics, which is what keeps --no-profile output byte-identical
// to the seed.
inline void AppendMetrics(const CellResult& result, ScenarioCell* cell) {
  cell->metrics.emplace_back("mean_s", result.mean_s);
  cell->metrics.emplace_back("p50_s", result.p50_s);
  cell->metrics.emplace_back("p95_s", result.p95_s);
  cell->metrics.emplace_back("completed",
                             static_cast<double>(result.completed));
  cell->metrics.emplace_back("failures",
                             static_cast<double>(result.failures));
  if (!result.profiled) return;
  for (std::size_t i = 0; i < profile::kStageCount; ++i) {
    const std::string stage(
        profile::StageName(static_cast<profile::Stage>(i)));
    const profile::StageSummary& summary = result.stages[i];
    cell->metrics.emplace_back(stage + "_p50_s", summary.p50_s);
    cell->metrics.emplace_back(stage + "_p95_s", summary.p95_s);
    cell->metrics.emplace_back(stage + "_p99_s", summary.p99_s);
  }
  // Trace-derived tail attribution: which stage dominated the slowest
  // assembled traces (stage index; -1 = no traces in the window), and
  // each pipeline stage's share of the tail's attributed time. The
  // umbrella client_issue span and the background stages never appear
  // in request waterfalls, so only the five handling stages report.
  cell->metrics.emplace_back("trace_count",
                             static_cast<double>(result.trace_count));
  cell->metrics.emplace_back(
      "slow_trace_top_stage",
      static_cast<double>(result.slow_trace_top_stage));
  for (const profile::Stage stage :
       {profile::Stage::kQmAdmit, profile::Stage::kPmDelegate,
        profile::Stage::kPoolSelect, profile::Stage::kReintegrate,
        profile::Stage::kReply}) {
    const std::string name(profile::StageName(stage));
    cell->metrics.emplace_back(
        name + "_tail_share",
        result.tail_share[static_cast<std::size_t>(stage)]);
  }
}

// Appends "<stage>_p50_s/_p95_s/_p99_s" for each requested stage —
// for scenarios that run a profiler outside the CellResult path.
inline void AppendStageMetrics(const profile::StageProfiler& profiler,
                               std::initializer_list<profile::Stage> stages,
                               ScenarioCell* cell) {
  for (const profile::Stage stage : stages) {
    const std::string name(profile::StageName(stage));
    const profile::StageSummary summary = profiler.Summary(stage);
    cell->metrics.emplace_back(name + "_p50_s", summary.p50_s);
    cell->metrics.emplace_back(name + "_p95_s", summary.p95_s);
    cell->metrics.emplace_back(name + "_p99_s", summary.p99_s);
  }
}

// Every instrumented stage from a finished scenario (pipeline hops
// plus the replica_sync / monitor_sweep background services); no-op
// when the run was built with profiling off.
inline void AppendStageMetrics(const SimScenario& scenario,
                               ScenarioCell* cell) {
  const profile::StageProfiler* profiler = scenario.profiler();
  if (profiler == nullptr) return;
  for (std::size_t i = 0; i < profile::kStageCount; ++i) {
    AppendStageMetrics(*profiler, {static_cast<profile::Stage>(i)}, cell);
  }
}

// Appends the fault-regime metrics the lossy/churn scenarios report on
// top of the standard ones.
inline void AppendFaultMetrics(const CellResult& result, ScenarioCell* cell) {
  cell->metrics.emplace_back("success_rate", result.success_rate);
  cell->metrics.emplace_back("lost", static_cast<double>(result.lost));
  cell->metrics.emplace_back("retries", static_cast<double>(result.retries));
}

// Appends the replicated-directory metrics (wan_partition_heal,
// directory_failover, fig8's replicated-directory cells). All values
// are deterministic functions of the seed and are perf-tracked.
inline void AppendReplicaMetrics(const CellResult& result,
                                 ScenarioCell* cell) {
  cell->metrics.emplace_back("sync_bytes",
                             static_cast<double>(result.sync_bytes));
  cell->metrics.emplace_back("full_syncs",
                             static_cast<double>(result.full_syncs));
  cell->metrics.emplace_back("failovers",
                             static_cast<double>(result.failovers));
  cell->metrics.emplace_back("convergences",
                             static_cast<double>(result.convergences));
  cell->metrics.emplace_back("tombstones_gc",
                             static_cast<double>(result.tombstones_gc));
  cell->metrics.emplace_back("max_staleness_s", result.max_staleness_s);
  cell->metrics.emplace_back("converge_time_s", result.converge_time_s);
}

// Appends the engine metrics the scaling sweeps report: selection cost
// (entries examined per allocation — the indexed-vs-linear headroom),
// refresh cost (cache entries re-read per periodic tick — with dirty-id
// refresh this tracks monitor churn, not cache size), and host-side
// event throughput. ev_per_s_wall is wall-clock derived: it is excluded
// from the perf baseline diff and zeroed under --stable so fixed-seed
// output is byte-identical across hosts and --jobs values.
inline void AppendEngineMetrics(const CellResult& result,
                                const ScenarioRunOptions& options,
                                ScenarioCell* cell) {
  const double per_alloc =
      result.allocations == 0
          ? 0.0
          : static_cast<double>(result.entries_examined) /
                static_cast<double>(result.allocations);
  cell->metrics.emplace_back("sel_cost", per_alloc);
  cell->metrics.emplace_back("entries_refreshed",
                             static_cast<double>(result.entries_refreshed));
  const double per_tick =
      result.refresh_ticks == 0
          ? 0.0
          : static_cast<double>(result.entries_refreshed) /
                static_cast<double>(result.refresh_ticks);
  cell->metrics.emplace_back("refresh_cost", per_tick);
  cell->metrics.emplace_back(
      "ev_per_s_wall",
      options.stable || result.wall_s <= 0
          ? 0.0
          : static_cast<double>(result.events) / result.wall_s);
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
