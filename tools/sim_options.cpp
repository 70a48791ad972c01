#include "sim_options.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "chaos/workload_regime.hpp"
#include "common/strings.hpp"
#include "fault/fault_plan.hpp"

namespace actyp::driver {
namespace {

using cli::Forms;
using cli::Number;
using cli::Setter;
using cli::Unit;

constexpr std::string_view kIntro =
    "usage: actyp_sim (--scenario NAME ... | --all | --list | --config "
    "FILE)\n"
    "                 [options]\n"
    "\n"
    "Every option is a flag (--seed 7) and also a key in a --config file\n"
    "(seed = 7), unless marked [flag only] or [key only]. A switch such as\n"
    "--json is `json = true|false` as a key.\n"
    "\n";

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return std::nullopt;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

Setter AppendScenario(std::vector<std::string>* names) {
  return [names](std::string_view, const std::string& value) {
    names->push_back(value);
    return Status::Ok();
  };
}

// The key form: a comma list of names, where "all" means --all.
Setter ScenarioList(SimArgs* args) {
  return [args](std::string_view, const std::string& value) {
    for (const std::string& name : SplitSkipEmpty(value, ',')) {
      const std::string trimmed = Trim(name);
      if (trimmed == "all") {
        args->all = true;
      } else {
        args->scenarios.push_back(trimmed);
      }
    }
    return Status::Ok();
  };
}

Setter ConfigFile(SimArgs* args) {
  return [args](std::string_view, const std::string& path) -> Status {
    const auto text = ReadFile(path);
    if (!text) return Unavailable("cannot read config '" + path + "'");
    const auto config = Config::Parse(*text);
    if (!config.ok()) {
      return InvalidArgument(path + ": " + config.status().message());
    }
    return ApplySimConfig(*config, path, args);
  };
}

Setter FaultPlanFile(std::string* plan_text) {
  return [plan_text](std::string_view name,
                     const std::string& path) -> Status {
    const auto text = ReadFile(path);
    if (!text) return Unavailable("cannot read fault plan '" + path + "'");
    // Validate up front so a bad plan fails before any scenario runs.
    const auto plan = fault::FaultPlan::Parse(*text);
    if (!plan.ok()) return cli::BadValue(name, path, plan.status().message());
    *plan_text = *text;
    return Status::Ok();
  };
}

Setter Regime(std::string* regime_text) {
  return [regime_text](std::string_view name, const std::string& value) {
    const auto regime = chaos::WorkloadRegime::Parse(value);
    if (!regime.ok()) {
      return cli::BadValue(name, value, regime.status().message());
    }
    *regime_text = value;
    return Status::Ok();
  };
}

Setter MetricsFormat(profile::MetricsExporter::Format* format) {
  return [format](std::string_view name, const std::string& value) {
    const auto parsed = profile::MetricsExporter::ParseFormat(value);
    if (!parsed) return cli::BadValue(name, value, "must be jsonl or prom");
    *format = *parsed;
    return Status::Ok();
  };
}

Setter TraceFilterSpec(profile::TraceFilter* filter) {
  return [filter](std::string_view name, const std::string& value) {
    std::string error;
    const auto parsed = profile::TraceFilter::Parse(value, &error);
    if (!parsed) return cli::BadValue(name, value, error);
    *filter = *parsed;
    return Status::Ok();
  };
}

}  // namespace

std::vector<cli::Option> SimOptions(SimArgs* args) {
  ScenarioRunOptions& run = args->run;
  return {
      {"help", "", "print this help and exit", cli::Bool(&args->help),
       Forms::kFlagOnly},
      {"list", "", "list registered scenarios and exit",
       cli::Bool(&args->list), Forms::kFlagOnly},
      {"scenario", "NAME",
       "run one scenario (repeatable); as a key, a comma list of names or "
       "'all'",
       AppendScenario(&args->scenarios), Forms::kBoth, ScenarioList(args)},
      {"all", "", "run every registered scenario", cli::Bool(&args->all),
       Forms::kFlagOnly},
      {"config", "FILE",
       "load a full experiment: scenario selection, any option not marked "
       "[flag only], and a [fault] section of numbered fault-plan lines (see "
       "examples/experiment.conf); flags after --config override the file",
       ConfigFile(args), Forms::kFlagOnly},
      {"json", "", "emit one JSON object per run to stdout",
       cli::Bool(&args->json)},
      {"seed", "N", "override the scenario's base seed",
       Number(&run.seed, cli::kNonNegative)},
      {"machines", "N", "pin the fleet-size sweep dimension",
       Number(&run.machines, cli::kAtLeastOne)},
      {"clients", "N", "pin the client-count sweep dimension",
       Number(&run.clients, cli::kAtLeastOne)},
      {"time-scale", "X", "scale simulated warmup/measure durations",
       Number(&run.time_scale, cli::kPositive)},
      {"loss", "P", "inject message loss with probability P",
       Number(&run.loss, {0, 1})},
      {"churn-rate", "R", "crash R random machines per simulated second",
       Number(&run.churn_rate, cli::kNonNegative)},
      {"fault-plan", "FILE",
       "apply the fault plan in FILE (loss windows, latency spikes, "
       "partitions, crashes, churn, site-crash/site-restore); a config file "
       "gives the same lines in its [fault] section",
       FaultPlanFile(&run.fault_plan_text), Forms::kFlagOnly},
      {"replicas", "N",
       "replicate the directory service N ways (1 = the single "
       "authoritative directory)",
       Number(&run.replicas, {1, UINT32_MAX})},
      {"sync-period", "S",
       "anti-entropy pull period, simulated seconds (scaled by "
       "--time-scale)",
       Number(&run.sync_period_s, cli::kPositive, Unit::kSeconds)},
      {"retry-max", "N", "client retries per timed-out request",
       Number(&run.retry_max, cli::kNonNegative)},
      {"retry-backoff", "S",
       "base retry backoff, simulated seconds (scaled by --time-scale)",
       Number(&run.retry_backoff_s, cli::kPositive, Unit::kSeconds)},
      {"quiesce", "S",
       "drain each cell S extra simulated seconds (scaled by --time-scale) "
       "after the measurement window, so success rates reflect the "
       "recovered system; 0 (default) keeps output byte-identical",
       Number(&run.quiesce_s, cli::kNonNegative, Unit::kSeconds)},
      {"regime", "STR",
       "chaos_cell workload regime, one 'key=value ...' line (see "
       "src/chaos/workload_regime.hpp)",
       Regime(&run.regime_text)},
      {"jobs", "N",
       "run independent sweep cells (and, for multi-scenario runs, whole "
       "scenarios) on N worker threads; output order is unchanged",
       Number(&run.jobs, cli::kAtLeastOne)},
      {"cell-jobs", "N",
       "worker threads for the LP-parallel engine inside each multi-site "
       "cell (big_wan etc.); reports are byte-identical for any N",
       Number(&run.cell_jobs, cli::kAtLeastOne)},
      {"no-profile", "",
       "disable the stage-span profiler: reports omit the per-stage "
       "percentiles (the pre-profiler output, byte for byte)",
       cli::Bool(&run.profile, false), Forms::kFlagOnly},
      {"profile", "BOOL", "false is --no-profile", cli::Bool(&run.profile),
       Forms::kKeyOnly},
      {"profile-ring-capacity", "N",
       "retain the last N stage spans per simulation (the window "
       "--trace-out assembles traces from; default 4096)",
       Number(&run.profile_ring_capacity, cli::kAtLeastOne)},
      {"metrics-out", "FILE",
       "also export every report cell's metrics to FILE after the run",
       cli::Text(&args->metrics_out)},
      {"metrics-format", "F",
       "export format: jsonl (default, one JSON object per cell) or prom "
       "(Prometheus text)",
       MetricsFormat(&args->metrics_format)},
      {"metrics-interval", "S",
       "also snapshot each cell's progress (completions, failures, stage "
       "counts and p95s) every S simulated seconds of its measurement "
       "window (scaled by --time-scale); the snapshots go into the "
       "--metrics-out file, in seed order, ahead of the report cells",
       Number(&run.metrics_interval_s, cli::kPositive, Unit::kSeconds)},
      {"telemetry-out", "FILE",
       "record a gauge time-series on the sim clock (completions, "
       "failures, retries, in-flight clients, held claims, live pools and "
       "their sessions, pending events, queued messages, busy cores, "
       "lost/dropped messages, machines and services down, replica "
       "staleness and journal ops) and write it as JSON lines; "
       "byte-identical for any --jobs / --cell-jobs",
       cli::Text(&args->telemetry_out)},
      {"telemetry-interval", "S",
       "simulated seconds between telemetry samples (scaled by "
       "--time-scale; default 1)",
       Number(&run.telemetry_interval_s, cli::kPositive, Unit::kSeconds)},
      {"flight-out", "FILE",
       "enable the flight recorder (bounded ring of message sends/drops, "
       "timer arms/fires, fault strikes, replica syncs, pool claims) and "
       "write the merged window to FILE as JSON lines",
       cli::Text(&args->flight_out)},
      {"trace-out", "FILE",
       "assemble per-request traces from the span rings and write the "
       "slowest and exemplar requests (plus replica_sync / monitor_sweep "
       "lanes) as Chrome trace-event JSON for Perfetto or chrome://tracing",
       cli::Text(&args->trace_out)},
      {"trace-top", "N",
       "traces per kind per cell in --trace-out (N slowest and N "
       "exemplars; default 5)",
       Number(&args->trace_top, cli::kAtLeastOne)},
      {"trace-filter", "SPEC",
       "keep only matching request traces in --trace-out: comma-separated "
       "request=<id>, stage=<name>, min-dur=<seconds> terms",
       TraceFilterSpec(&args->trace_filter)},
  };
}

Status ParseSimArgs(const std::vector<std::string>& argv, SimArgs* args) {
  return cli::ApplyFlags(SimOptions(args), argv);
}

Status ApplySimConfig(const Config& config, std::string_view source,
                      SimArgs* args) {
  if (Status status =
          cli::ApplyKeys(SimOptions(args), config, "fault", source);
      !status.ok()) {
    return status;
  }
  const auto plan = fault::FaultPlan::FromConfig(config);
  if (!plan.ok()) {
    return InvalidArgument(std::string(source) + ": [fault]: " +
                           plan.status().message());
  }
  if (!plan->empty()) args->run.fault_plan_text = plan->Serialize();
  return Status::Ok();
}

std::string SimHelp() {
  SimArgs unused;
  return cli::Help(SimOptions(&unused), kIntro, "");
}

}  // namespace actyp::driver
