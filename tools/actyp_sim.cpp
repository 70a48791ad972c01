// actyp_sim: the unified scenario driver — one front door to every
// paper figure and ablation the repo reproduces.
//
//   list:      actyp_sim --list
//   run:       actyp_sim --scenario fig6_pool_size
//   JSON:      actyp_sim --scenario fig6_pool_size --json
//   overrides: actyp_sim --scenario fig4_pools_lan --machines 800
//                  --clients 8 --seed 7 --time-scale 0.25
//   faults:    actyp_sim --scenario lossy_lan --loss 0.05
//              actyp_sim --scenario pool_churn --churn-rate 2
//              actyp_sim --scenario fig4_pools_lan --fault-plan plan.txt
//   config:    actyp_sim --config examples/experiment.conf
//   everything: actyp_sim --all --json
//   parallel:  actyp_sim --scenario qm_scaling --jobs 8 --json
//
// --jobs N runs independent scenario cells on N worker threads — each
// cell owns its own kernel/network/RNG — and, when several scenarios
// are requested (--all, repeated --scenario), whole scenarios too.
// Reports are always emitted in request order, so fixed-seed output is
// byte-identical for any worker count. The observability files
// (--metrics-out, --telemetry-out, --flight-out, --trace-out) are
// written once, at exit, from seed-keyed sinks, so they are too.
//
// --config loads a full experiment from one file (scenario selection,
// overrides, and a [fault] section parsed via FaultPlan::FromConfig);
// flags given after --config override the file's values. Flags and
// config keys are one option table (sim_options.cpp), and --help is
// generated from it.
//
// JSON goes to stdout, one object per scenario run, with a stable
// {scenario, title, cells[], note} shape for perf tracking.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "actyp/scenario_registry.hpp"
#include "common/seed_sink.hpp"
#include "common/thread_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "profile/metrics_exporter.hpp"
#include "profile/trace_assembler.hpp"
#include "sim_options.hpp"

namespace {

using actyp::ScenarioInfo;
using actyp::ScenarioRegistry;
using actyp::ScenarioRunOptions;
using actyp::profile::MetricsExporter;

int Fail(int code, const std::string& message) {
  std::fprintf(stderr, "actyp_sim: %s\n", message.c_str());
  if (code == 2) std::fprintf(stderr, "run 'actyp_sim --help' for usage\n");
  return code;
}

int ListScenarios() {
  for (const ScenarioInfo* info : ScenarioRegistry::Instance().List()) {
    std::printf("%-26s %s\n", info->name.c_str(), info->summary.c_str());
  }
  return 0;
}

// Flattens one finished report into exporter cells: string labels pass
// through, numeric dims become labels (formatted like the JSON report),
// metrics become the values.
std::vector<actyp::profile::MetricCell> FlattenReport(
    const actyp::ScenarioReport& report) {
  std::vector<actyp::profile::MetricCell> cells;
  cells.reserve(report.cells.size());
  for (const actyp::ScenarioCell& cell : report.cells) {
    actyp::profile::MetricCell out;
    out.scenario = report.scenario;
    for (const auto& [key, value] : cell.labels) {
      out.labels.emplace_back(key, value);
    }
    for (const auto& [key, value] : cell.dims) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.6g", value);
      out.labels.emplace_back(key, buffer);
    }
    out.values = cell.metrics;
    cells.push_back(std::move(out));
  }
  return cells;
}

// Drains a per-cell sample sink (seed order, so the file is
// byte-identical for any --jobs / --cell-jobs) into an exporter.
void AddSamples(actyp::SeedSink<actyp::profile::MetricCell>* sink,
                MetricsExporter* exporter) {
  for (auto& cell : sink->Take()) {
    for (auto& sample : cell.items) exporter->Add(std::move(sample));
  }
}

}  // namespace

int main(int argc, char** argv) {
  actyp::driver::SimArgs args;
  if (const auto status = actyp::driver::ParseSimArgs(
          std::vector<std::string>(argv + 1, argv + argc), &args);
      !status.ok()) {
    return Fail(actyp::cli::ExitCode(status), status.message());
  }
  if (args.help) {
    std::fputs(actyp::driver::SimHelp().c_str(), stdout);
    return 0;
  }
  if (args.list) return ListScenarios();

  std::vector<std::string> names = args.scenarios;
  if (args.all) {
    for (const ScenarioInfo* info : ScenarioRegistry::Instance().List()) {
      names.push_back(info->name);
    }
  }
  if (names.empty()) {
    std::fputs(actyp::driver::SimHelp().c_str(), stderr);
    return 2;
  }

  // Resolve every requested scenario before running anything, so a typo
  // fails fast instead of after minutes of sweeps.
  std::vector<const ScenarioInfo*> infos;
  infos.reserve(names.size());
  for (const std::string& name : names) {
    const ScenarioInfo* info = ScenarioRegistry::Instance().Find(name);
    if (info == nullptr) {
      return Fail(1, "unknown scenario '" + name + "' (try --list)");
    }
    infos.push_back(info);
  }

  // Observability wiring: each sink collects per-cell output keyed by
  // cell seed, and its file is written after the run.
  ScenarioRunOptions options = args.run;
  actyp::profile::TraceSink trace_sink;
  if (!args.trace_out.empty()) {
    if (!options.profile) {
      return Fail(2, "--trace-out needs the profiler; drop --no-profile");
    }
    options.trace_sink = &trace_sink;
  }
  actyp::SeedSink<actyp::profile::MetricCell> metrics_sink;
  if (options.metrics_interval_s > 0) {
    if (args.metrics_out.empty()) {
      return Fail(2, "--metrics-interval needs --metrics-out FILE");
    }
    options.metrics_sink = &metrics_sink;
  }
  actyp::obs::TelemetrySink telemetry_sink;
  if (!args.telemetry_out.empty()) {
    options.telemetry_sink = &telemetry_sink;
    // One sample per simulated second unless --telemetry-interval says.
    if (options.telemetry_interval_s == 0) options.telemetry_interval_s = 1;
  } else if (options.telemetry_interval_s > 0) {
    return Fail(2, "--telemetry-interval needs --telemetry-out FILE");
  }
  actyp::obs::FlightSink flight_sink;
  if (!args.flight_out.empty()) {
    options.flight_sink = &flight_sink;
  }

  // Multi-scenario runs parallelize across scenarios (each worker runs
  // its scenario's cells serially); a single scenario parallelizes its
  // own cells instead. Either way reports land in request order, so the
  // emitted stream is identical to a --jobs 1 run.
  std::vector<actyp::ScenarioReport> reports(infos.size());
  if (options.jobs > 1 && infos.size() > 1) {
    ScenarioRunOptions cell_options = options;
    cell_options.jobs = 1;
    {
      actyp::ThreadPool pool(std::min(options.jobs, infos.size()));
      for (std::size_t i = 0; i < infos.size(); ++i) {
        if (infos[i]->wall_clock) continue;
        pool.Submit([&reports, &infos, &cell_options, i] {
          reports[i] = infos[i]->run(cell_options);
        });
      }
      pool.Drain();
    }
    // Wall-clock scenarios measure host time: run them alone, after
    // the pool is idle, so concurrent sweeps cannot inflate the very
    // timings they report. Request order is preserved either way.
    for (std::size_t i = 0; i < infos.size(); ++i) {
      if (infos[i]->wall_clock) reports[i] = infos[i]->run(cell_options);
    }
  } else {
    for (std::size_t i = 0; i < infos.size(); ++i) {
      reports[i] = infos[i]->run(options);
    }
  }

  for (const actyp::ScenarioReport& report : reports) {
    if (args.json) {
      actyp::WriteReportJson(report, std::cout);
    } else {
      actyp::WriteReportTable(report, std::cout);
    }
  }

  if (!args.metrics_out.empty()) {
    // The --metrics-interval snapshots in the sink's drain order, then
    // every report cell.
    MetricsExporter exporter(args.metrics_format);
    AddSamples(&metrics_sink, &exporter);
    for (const actyp::ScenarioReport& report : reports) {
      for (auto& cell : FlattenReport(report)) exporter.Add(std::move(cell));
    }
    if (const auto status = exporter.WriteFile(args.metrics_out);
        !status.ok()) {
      return Fail(1, status.ToString());
    }
  }

  if (!args.telemetry_out.empty()) {
    // One JSONL line per sample, cells in the sink's drain order.
    MetricsExporter exporter(MetricsExporter::Format::kJsonl);
    AddSamples(&telemetry_sink, &exporter);
    if (const auto status = exporter.WriteFile(args.telemetry_out);
        !status.ok()) {
      return Fail(1, status.ToString());
    }
  }

  if (!args.flight_out.empty()) {
    std::vector<actyp::obs::FlightEvent> events;
    for (auto& cell : flight_sink.Take()) {
      events.insert(events.end(), std::make_move_iterator(cell.items.begin()),
                    std::make_move_iterator(cell.items.end()));
    }
    if (const auto status =
            actyp::obs::WriteFlightJsonlFile(events, args.flight_out);
        !status.ok()) {
      return Fail(1, status.ToString());
    }
  }

  if (!args.trace_out.empty()) {
    actyp::profile::ChromeTraceOptions trace_options;
    trace_options.slow_n = args.trace_top;
    trace_options.exemplar_n = args.trace_top;
    if (const auto status = actyp::profile::WriteChromeTraceFile(
            actyp::profile::FilterTraceCells(trace_sink.Take(),
                                             args.trace_filter),
            trace_options, args.trace_out);
        !status.ok()) {
      return Fail(1, status.ToString());
    }
  }
  return 0;
}
