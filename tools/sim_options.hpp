// actyp_sim's options: one table (see option_table.hpp) behind its
// command line, its --config experiment files and its --help.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "actyp/scenario_registry.hpp"
#include "common/config.hpp"
#include "common/status.hpp"
#include "option_table.hpp"
#include "profile/metrics_exporter.hpp"
#include "profile/trace_assembler.hpp"

namespace actyp::driver {

// Everything an actyp_sim command line or config file can set.
struct SimArgs {
  bool help = false;
  bool list = false;
  bool all = false;
  bool json = false;
  std::vector<std::string> scenarios;  // in request order
  ScenarioRunOptions run;
  std::string metrics_out;  // empty = no export
  profile::MetricsExporter::Format metrics_format =
      profile::MetricsExporter::Format::kJsonl;
  std::string telemetry_out;  // empty = no telemetry series
  std::string flight_out;     // empty = the recorder stays off
  std::string trace_out;      // empty = no trace file
  std::size_t trace_top = 5;  // slowest + exemplar traces per cell
  profile::TraceFilter trace_filter;

  bool operator==(const SimArgs&) const = default;
};

// The option table with every setter writing into `*args`, which must
// outlive every use of the table.
[[nodiscard]] std::vector<cli::Option> SimOptions(SimArgs* args);

// Applies argv[1..] in order, so flags after --config override the
// file's values and earlier flags are overridden by it.
[[nodiscard]] Status ParseSimArgs(const std::vector<std::string>& argv,
                                  SimArgs* args);

// Applies one experiment config: its keys through the table, its
// [fault] section as the fault plan. `source` names it in errors.
[[nodiscard]] Status ApplySimConfig(const Config& config,
                                    std::string_view source, SimArgs* args);

// The --help text, generated from the table.
[[nodiscard]] std::string SimHelp();

}  // namespace actyp::driver
