// ScenarioRegistry: the single front door to every experiment the repo
// reproduces. Each paper figure (fig4_pools_lan ... fig9_workload) and
// ablation (abl_baselines ... abl_sched_policy) registers itself by
// name; the `actyp_sim` driver lists, configures, and runs them and
// emits either an aligned table or machine-readable JSON. CI smoke
// tests and the BENCH_baseline.json perf gate run through this layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace actyp {

// common/seed_sink.hpp: profile::TraceSink, obs::TelemetrySink and
// obs::FlightSink are SeedSinks of spans, gauge samples and events.
template <typename T>
class SeedSink;

namespace profile {
struct MetricCell;
struct SpanRecord;
}  // namespace profile

namespace obs {
struct FlightEvent;
}  // namespace obs

// Overrides applied uniformly to a scenario's sweep: pin a dimension
// (machines/clients), rescale simulated warmup/measure durations, or
// replace the seed so perf tracking can vary runs deterministically.
// The fault overrides layer deterministic fault injection onto any
// scenario: a flat message-loss probability, a machine-churn rate, or a
// full fault-plan text (see fault/fault_plan.hpp for the format).
struct ScenarioRunOptions {
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> machines;
  std::optional<std::size_t> clients;
  double time_scale = 1.0;
  std::optional<double> loss;        // --loss: message-loss probability
  std::optional<double> churn_rate;  // --churn-rate: machine crashes per s
  std::string fault_plan_text;       // --fault-plan: full plan text
  // --replicas: directory replication factor (1 = the seed single
  // authoritative directory, byte-identical under a fixed seed).
  std::optional<std::uint32_t> replicas;
  // --sync-period: anti-entropy pull period in simulated seconds.
  std::optional<double> sync_period_s;
  // --retry-max / --retry-backoff: client retry policy for timed-out
  // requests (backoff in simulated seconds).
  std::optional<std::size_t> retry_max;
  std::optional<double> retry_backoff_s;
  // --jobs: run independent sweep cells concurrently on this many
  // worker threads. Every cell owns its own kernel/network/RNG seeded
  // from (base seed, cell position), and results are emitted in fixed
  // cell order, so the output is independent of the worker count.
  std::size_t jobs = 1;
  // --cell-jobs: worker threads for the LP-parallel engine *inside*
  // each multi-site cell (scenarios built with wan_sites >= 2; see
  // ScenarioConfig). Composes with --jobs, which parallelizes across
  // cells. Purely an execution knob: sharding is fixed by the scenario,
  // so reports and traces are byte-identical for any value. Single-site
  // scenarios ignore it.
  std::size_t cell_jobs = 1;
  // --quiesce: extend each cell by this many simulated seconds (scaled
  // by --time-scale, like warmup/measure) after the measurement window,
  // so success-rate and convergence numbers are judged after faults
  // stop instead of mid-disruption. 0 (the default) keeps every
  // existing report byte-identical.
  double quiesce_s = 0;
  // --regime: one serialized chaos::WorkloadRegime line (see
  // src/chaos/workload_regime.hpp) selecting the chaos_cell scenario's
  // workload shape. Empty = the default regime; other scenarios ignore
  // it.
  std::string regime_text;
  // --no-profile sets this false: the scenarios skip building the
  // stage profiler and the reports omit the per-stage percentile
  // metrics — restoring the pre-profiler output byte for byte.
  bool profile = true;
  // --profile-ring-capacity: span ring size per simulation (bounds how
  // much history --trace-out can assemble from).
  std::optional<std::size_t> profile_ring_capacity;
  // --trace-out wiring: when set (and profiling is on), every cell
  // deposits its span ring snapshot here; the driver assembles and
  // writes the Chrome trace file after the run. Cells running on
  // ThreadPool workers add in completion order — the sink re-orders
  // deterministically on drain.
  SeedSink<profile::SpanRecord>* trace_sink = nullptr;
  // --metrics-interval and --telemetry-out wiring: when a sink is set
  // and its interval is positive, each cell samples its measurement
  // window at every interval boundary (scaled by --time-scale) — a
  // progress snapshot for metrics_sink, a gauge vector for
  // telemetry_sink — from the one chunk loop in SimScenario::Measure.
  // Chunked advancement never reorders events, so the report stays
  // byte-identical, and samples are keyed by cell seed, so the files
  // are byte-identical for any --jobs / --cell-jobs.
  SeedSink<profile::MetricCell>* metrics_sink = nullptr;
  double metrics_interval_s = 0;
  SeedSink<profile::MetricCell>* telemetry_sink = nullptr;
  double telemetry_interval_s = 0;
  // --flight-out wiring: when set, each cell builds its scenario with
  // the flight recorder enabled and deposits the merged event snapshot
  // here after its run.
  SeedSink<obs::FlightEvent>* flight_sink = nullptr;

  bool operator==(const ScenarioRunOptions&) const = default;
};

// One measured cell of a scenario sweep: ordered string labels
// (e.g. policy=least-load), ordered numeric dimensions (pools=4,
// clients=32), and ordered metric values (mean_s, ...).
struct ScenarioCell {
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, double>> dims;
  std::vector<std::pair<std::string, double>> metrics;
};

// A completed scenario run.
struct ScenarioReport {
  std::string scenario;
  std::string title;
  std::vector<ScenarioCell> cells;
  std::string note;  // the qualitative shape check behind the figure
};

using ScenarioFn = std::function<ScenarioReport(const ScenarioRunOptions&)>;

struct ScenarioInfo {
  std::string name;
  std::string summary;
  ScenarioFn run;
  // True for scenarios whose reported numbers are host wall-clock
  // measurements (not simulated time): the driver must never run them
  // concurrently with other scenarios, or contention corrupts the very
  // timings they exist to report.
  bool wall_clock = false;
};

class ScenarioRegistry {
 public:
  static ScenarioRegistry& Instance();

  void Register(ScenarioInfo info);
  [[nodiscard]] const ScenarioInfo* Find(const std::string& name) const;
  [[nodiscard]] std::vector<const ScenarioInfo*> List() const;

 private:
  std::map<std::string, ScenarioInfo> scenarios_;
};

// File-scope registrar: construct one per scenario translation unit.
struct ScenarioRegistrar {
  ScenarioRegistrar(std::string name, std::string summary, ScenarioFn fn,
                    bool wall_clock = false);
};

// Report emitters: the aligned table and one JSON object per report.
void WriteReportTable(const ScenarioReport& report, std::ostream& out);
void WriteReportJson(const ScenarioReport& report, std::ostream& out);

}  // namespace actyp
