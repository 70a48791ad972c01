// Tests for the unified scenario driver: every paper figure and
// ablation must be registered by name, runs must honor the driver
// overrides, the JSON report emission must be parseable, and actyp_sim's
// option table must read every flag and config key through one
// validated path.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "actyp/scenario_registry.hpp"
#include "chaos/chaos_plan.hpp"
#include "chaos/trial.hpp"
#include "chaos/workload_regime.hpp"
#include "common/config.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "sim_options.hpp"

namespace actyp {
namespace {

// A minimal recursive-descent JSON validity checker — enough to assert
// the driver's output is real JSON (objects, arrays, strings, numbers,
// null) without an external parser dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  [[nodiscard]] char Peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

constexpr const char* kExpectedScenarios[] = {
    "fig4_pools_lan",  "fig5_pools_wan",
    "fig6_pool_size",  "fig7_splitting",
    "fig8_replication", "fig9_workload",
    "abl_baselines",   "abl_delegation",
    "abl_dynamic_aggregation", "abl_qos_fanout",
    "abl_query_micro", "abl_sched_policy",
};

TEST(ScenarioRegistry, AllPaperScenariosRegistered) {
  auto& registry = ScenarioRegistry::Instance();
  for (const char* name : kExpectedScenarios) {
    const ScenarioInfo* info = registry.Find(name);
    ASSERT_NE(info, nullptr) << "missing scenario: " << name;
    EXPECT_EQ(info->name, name);
    EXPECT_FALSE(info->summary.empty()) << name;
    EXPECT_TRUE(static_cast<bool>(info->run)) << name;
  }
  EXPECT_GE(registry.List().size(), 12u);
}

TEST(ScenarioRegistry, ListIsSortedAndFindRejectsUnknown) {
  auto& registry = ScenarioRegistry::Instance();
  const auto list = registry.List();
  for (std::size_t i = 1; i < list.size(); ++i) {
    EXPECT_LT(list[i - 1]->name, list[i]->name);
  }
  EXPECT_EQ(registry.Find("no_such_scenario"), nullptr);
}

TEST(ScenarioRegistry, Fig6HonorsOverridesAndProducesCells) {
  ScenarioRunOptions options;
  options.machines = 100;
  options.clients = 2;
  options.time_scale = 0.1;
  options.seed = 7;
  const auto* info = ScenarioRegistry::Instance().Find("fig6_pool_size");
  ASSERT_NE(info, nullptr);
  const ScenarioReport report = info->run(options);
  EXPECT_EQ(report.scenario, "fig6_pool_size");
  ASSERT_EQ(report.cells.size(), 1u);  // both sweep dims pinned
  const ScenarioCell& cell = report.cells.front();
  ASSERT_EQ(cell.dims.size(), 2u);
  EXPECT_EQ(cell.dims[0].first, "machines");
  EXPECT_EQ(cell.dims[0].second, 100.0);
  EXPECT_EQ(cell.dims[1].first, "clients");
  EXPECT_EQ(cell.dims[1].second, 2.0);
  double completed = 0;
  for (const auto& [name, value] : cell.metrics) {
    if (name == "completed") completed = value;
  }
  EXPECT_GT(completed, 0.0);
}

TEST(ScenarioRegistry, Fig6JsonIsParseable) {
  ScenarioRunOptions options;
  options.machines = 100;
  options.clients = 2;
  options.time_scale = 0.1;
  const auto* info = ScenarioRegistry::Instance().Find("fig6_pool_size");
  ASSERT_NE(info, nullptr);
  std::ostringstream out;
  WriteReportJson(info->run(options), out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"scenario\":\"fig6_pool_size\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

// The tentpole guarantee of --jobs: a parallel sweep must emit exactly
// the bytes the serial sweep emits — every cell owns its own kernel and
// seed, and cells are collected in queue order. Every metric in the
// report is simulated, so no flag is needed for that.
TEST(ParallelSweep, JobsFourIsByteIdenticalToSerial) {
  for (const char* name : {"qm_scaling", "pm_scaling"}) {
    const auto* info = ScenarioRegistry::Instance().Find(name);
    ASSERT_NE(info, nullptr);
    ScenarioRunOptions options;
    options.machines = 100;
    options.clients = 2;
    options.time_scale = 0.05;
    options.seed = 17;

    options.jobs = 1;
    std::ostringstream serial;
    WriteReportJson(info->run(options), serial);

    options.jobs = 4;
    std::ostringstream parallel;
    WriteReportJson(info->run(options), parallel);

    EXPECT_FALSE(serial.str().empty());
    EXPECT_EQ(serial.str(), parallel.str()) << name;
  }
}

// Repeated parallel runs are stable too (no run-order dependence left).
TEST(ParallelSweep, ParallelRunsAreReproducible) {
  const auto* info = ScenarioRegistry::Instance().Find("fig6_pool_size");
  ASSERT_NE(info, nullptr);
  ScenarioRunOptions options;
  options.machines = 100;
  options.time_scale = 0.05;
  options.seed = 3;
  options.jobs = 3;
  std::ostringstream first, second;
  WriteReportJson(info->run(options), first);
  WriteReportJson(info->run(options), second);
  EXPECT_EQ(first.str(), second.str());
}

// Removes the contiguous block of profiled-only metrics that a
// profiled cell's standard report holds ("client_issue_p50_s" through
// the trace digest's trailing "reply_tail_share"), leaving the
// pre-profiler report.
std::string StripStageMetrics(std::string json) {
  const std::string first = ",\"client_issue_p50_s\":";
  const std::string last = "\"reply_tail_share\":";
  for (;;) {
    const std::size_t start = json.find(first);
    if (start == std::string::npos) break;
    std::size_t end = json.find(last, start);
    if (end == std::string::npos) break;
    end += last.size();
    while (end < json.size() && json[end] != ',' && json[end] != '}') {
      ++end;  // consume the numeric value
    }
    json.erase(start, end - start);
  }
  return json;
}

// The profiler's runtime off switch must reproduce the pre-profiler
// report byte for byte: same cells, same metrics, same formatting —
// the profiled report is the unprofiled one plus the appended
// per-stage percentiles, nothing else moved.
TEST(ProfileToggle, ProfiledReportIsUnprofiledPlusStageMetrics) {
  const auto* info = ScenarioRegistry::Instance().Find("fig6_pool_size");
  ASSERT_NE(info, nullptr);
  ScenarioRunOptions options;
  options.machines = 100;
  options.clients = 2;
  options.time_scale = 0.1;
  options.seed = 11;

  options.profile = true;
  std::ostringstream profiled;
  WriteReportJson(info->run(options), profiled);

  options.profile = false;
  std::ostringstream unprofiled;
  WriteReportJson(info->run(options), unprofiled);

  EXPECT_NE(profiled.str().find("\"pool_select_p95_s\":"),
            std::string::npos);
  EXPECT_EQ(unprofiled.str().find("_p50_s"), std::string::npos);
  EXPECT_EQ(unprofiled.str().find("_p99_s"), std::string::npos);
  EXPECT_EQ(StripStageMetrics(profiled.str()), unprofiled.str());
}

// Byte-identical replay with profiling off: repeated unprofiled runs
// at a fixed seed emit the same bytes (the profiler leaves no trace in
// the simulation, so the off path is exactly the seed path).
TEST(ProfileToggle, UnprofiledRunsAreByteIdentical) {
  for (const char* name : {"fig6_pool_size", "qm_scaling"}) {
    const auto* info = ScenarioRegistry::Instance().Find(name);
    ASSERT_NE(info, nullptr);
    ScenarioRunOptions options;
    options.machines = 100;
    options.clients = 2;
    options.time_scale = 0.05;
    options.seed = 23;
    options.profile = false;
    std::ostringstream first, second;
    WriteReportJson(info->run(options), first);
    WriteReportJson(info->run(options), second);
    EXPECT_FALSE(first.str().empty()) << name;
    EXPECT_EQ(first.str(), second.str()) << name;
  }
}

// Parallel profiled sweeps stay deterministic: each cell owns its own
// profiler, so --jobs does not reorder or interleave stage samples.
TEST(ProfileToggle, ProfiledParallelSweepMatchesSerial) {
  const auto* info = ScenarioRegistry::Instance().Find("qm_scaling");
  ASSERT_NE(info, nullptr);
  ScenarioRunOptions options;
  options.machines = 100;
  options.clients = 2;
  options.time_scale = 0.05;
  options.seed = 29;
  options.profile = true;

  options.jobs = 1;
  std::ostringstream serial;
  WriteReportJson(info->run(options), serial);

  options.jobs = 4;
  std::ostringstream parallel;
  WriteReportJson(info->run(options), parallel);

  EXPECT_NE(serial.str().find("_p95_s"), std::string::npos);
  EXPECT_EQ(serial.str(), parallel.str());
}

// The two ablations that once built their scenarios by hand run through
// bench::RunCell like every other simulated scenario, so the driver's
// sinks and fault overrides reach them.
TEST(DriverOverrides, AblationsHonorSinksAndFaults) {
  for (const char* name : {"abl_sched_policy", "abl_dynamic_aggregation"}) {
    const auto* info = ScenarioRegistry::Instance().Find(name);
    ASSERT_NE(info, nullptr);
    ScenarioRunOptions options;
    options.machines = 20;
    options.clients = 8;
    options.time_scale = 0.05;
    const auto render = [&] {
      std::ostringstream out;
      WriteReportJson(info->run(options), out);
      return out.str();
    };
    const std::string plain = render();

    obs::TelemetrySink telemetry;
    obs::FlightSink flight;
    options.telemetry_sink = &telemetry;
    options.telemetry_interval_s = 0.5;
    options.flight_sink = &flight;
    EXPECT_EQ(render(), plain) << name;  // observing changes nothing
    std::size_t samples = 0;
    for (const auto& cell : telemetry.Take()) samples += cell.items.size();
    EXPECT_GT(samples, 0u) << name;
#if !defined(ACTYP_PROFILE_OFF)
    // The flight recorder's Record() compiles away under
    // ACTYP_PROFILE_OFF, leaving no events to count.
    std::size_t events = 0;
    for (const auto& cell : flight.Take()) events += cell.items.size();
    EXPECT_GT(events, 0u) << name;
#endif

    options.telemetry_sink = nullptr;
    options.flight_sink = nullptr;
    options.loss = 0.2;
    EXPECT_TRUE(render() != plain) << name << ": --loss changed nothing";
  }
}

TEST(ReportEmitters, JsonEscapesAndNonFiniteValues) {
  ScenarioReport report;
  report.scenario = "synthetic";
  report.title = "quotes \" backslash \\ newline \n tab \t";
  ScenarioCell cell;
  cell.labels.emplace_back("label", "va\"lue");
  cell.dims.emplace_back("dim", 1.5);
  cell.metrics.emplace_back("nan_metric", std::nan(""));
  cell.metrics.emplace_back("inf_metric",
                            std::numeric_limits<double>::infinity());
  report.cells.push_back(cell);
  report.note = "control char \x01 and unicode-free text";
  std::ostringstream out;
  WriteReportJson(report, out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"nan_metric\":null"), std::string::npos);
  EXPECT_NE(json.find("\"inf_metric\":null"), std::string::npos);
}

TEST(ReportEmitters, TableContainsTitleHeadersAndNote) {
  ScenarioReport report;
  report.scenario = "synthetic";
  report.title = "synthetic title";
  ScenarioCell cell;
  cell.labels.emplace_back("policy", "least-load");
  cell.dims.emplace_back("clients", 8);
  cell.metrics.emplace_back("mean_s", 0.25);
  report.cells.push_back(cell);
  report.note = "shape check: synthetic";
  std::ostringstream out;
  WriteReportTable(report, out);
  const std::string table = out.str();
  EXPECT_NE(table.find("synthetic title"), std::string::npos);
  EXPECT_NE(table.find("policy"), std::string::npos);
  EXPECT_NE(table.find("least-load"), std::string::npos);
  EXPECT_NE(table.find("clients"), std::string::npos);
  EXPECT_NE(table.find("mean_s"), std::string::npos);
  EXPECT_NE(table.find("shape check: synthetic"), std::string::npos);
}

// ---------------------------------------------------------------------
// actyp_sim's option table: flags and config keys share one parser.
// ---------------------------------------------------------------------

using driver::ApplySimConfig;
using driver::ParseSimArgs;
using driver::SimArgs;

Status ParseKeys(const std::string& text, SimArgs* args) {
  const auto config = Config::Parse(text);
  if (!config.ok()) return config.status();
  return ApplySimConfig(*config, "test.conf", args);
}

TEST(SimOptions, NonFiniteNumbersAreRejected) {
  for (const std::vector<std::string>& argv :
       {std::vector<std::string>{"--loss", "nan"},
        std::vector<std::string>{"--time-scale", "inf"},
        std::vector<std::string>{"--time-scale", "1e999"},
        std::vector<std::string>{"--churn-rate", "-inf"}}) {
    SimArgs args;
    const Status status = ParseSimArgs(argv, &args);
    EXPECT_FALSE(status.ok()) << argv[0] << " " << argv[1];
    EXPECT_EQ(cli::ExitCode(status), 2) << argv[0];
  }
  SimArgs args;
  const Status status = ParseKeys("loss = nan\n", &args);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(cli::ExitCode(status), 2);
  EXPECT_EQ(status.message(),
            "invalid value 'nan' for loss: must be a non-negative number, "
            "at most 1");
}

TEST(SimOptions, DurationsMustFitSimDuration) {
  SimArgs args;
  EXPECT_TRUE(ParseSimArgs({"--quiesce", "9e12"}, &args).ok());
  const Status status = ParseSimArgs({"--quiesce", "1e13"}, &args);
  EXPECT_EQ(cli::ExitCode(status), 2);
  EXPECT_NE(status.message().find("at most 9.2e+12"), std::string::npos)
      << status.message();
}

TEST(SimOptions, UnknownKeysAndSectionsAreRejected) {
  SimArgs args;
  Status status = ParseKeys("scenario = fig6_pool_size\nmachnes = 200\n",
                            &args);
  EXPECT_EQ(cli::ExitCode(status), 2);
  EXPECT_NE(status.message().find("unknown key 'machnes'"),
            std::string::npos)
      << status.message();

  status = ParseKeys("[faults]\n1 = loss start=2 end=4 p=0.1\n", &args);
  EXPECT_EQ(cli::ExitCode(status), 2);
  EXPECT_NE(status.message().find("unknown section [faults]"),
            std::string::npos)
      << status.message();

  // Flag-only options are not keys, and key-only options are not flags.
  EXPECT_EQ(cli::ExitCode(ParseKeys("no-profile = true\n", &args)), 2);
  EXPECT_EQ(cli::ExitCode(ParseSimArgs({"--profile"}, &args)), 2);
}

TEST(SimOptions, BoolKeysAreStrict) {
  SimArgs args;
  const Status status = ParseKeys("json = yess\n", &args);
  EXPECT_EQ(cli::ExitCode(status), 2);
  EXPECT_EQ(status.message(),
            "invalid value 'yess' for json: must be true or false");
  EXPECT_FALSE(args.json);
  ASSERT_TRUE(ParseKeys("json = yes\n", &args).ok());
  EXPECT_TRUE(args.json);
  ASSERT_TRUE(ParseKeys("json = FALSE\n", &args).ok());
  EXPECT_FALSE(args.json);
}

TEST(SimOptions, BadValueReadsTheSameAsFlagOrKey) {
  SimArgs by_flag;
  SimArgs by_key;
  const Status flag = ParseSimArgs({"--metrics-interval", "-2"}, &by_flag);
  const Status key = ParseKeys("metrics-interval = -2\n", &by_key);
  EXPECT_EQ(cli::ExitCode(flag), 2);
  EXPECT_EQ(cli::ExitCode(key), 2);
  EXPECT_EQ(flag.message(), key.message());
  EXPECT_NE(flag.message().find("must be a positive"), std::string::npos)
      << flag.message();
}

// The differential oracle: every option with both forms, given one value
// as a flag and as a key, must parse to identical options — and the
// value must have changed something.
TEST(SimOptions, FlagAndKeyFormsParseIdentically) {
  const std::map<std::string, std::string> samples = {
      {"scenario", "fig6_pool_size"},
      {"json", "true"},
      {"seed", "7"},
      {"machines", "200"},
      {"clients", "4"},
      {"time-scale", "0.25"},
      {"loss", "0.05"},
      {"churn-rate", "2"},
      {"replicas", "2"},
      {"sync-period", "0.35"},
      {"retry-max", "2"},
      {"retry-backoff", "0.5"},
      {"quiesce", "1.5"},
      {"regime", chaos::WorkloadRegime{}.Serialize()},
      {"jobs", "3"},
      {"cell-jobs", "2"},
      {"profile-ring-capacity", "512"},
      {"metrics-out", "metrics.jsonl"},
      {"metrics-format", "prom"},
      {"metrics-interval", "0.5"},
      {"telemetry-out", "telemetry.jsonl"},
      {"telemetry-interval", "0.5"},
      {"flight-out", "flight.jsonl"},
      {"trace-out", "trace.json"},
      {"trace-top", "3"},
      {"trace-filter", "stage=pool_select,min-dur=0.01"},
  };
  SimArgs table_args;
  std::size_t checked = 0;
  for (const cli::Option& option : driver::SimOptions(&table_args)) {
    if (option.forms != cli::Forms::kBoth) continue;
    const auto sample = samples.find(option.name);
    ASSERT_NE(sample, samples.end()) << "no sample for " << option.name;
    std::vector<std::string> argv = {"--" + option.name};
    if (!option.metavar.empty()) argv.push_back(sample->second);
    SimArgs by_flag;
    SimArgs by_key;
    ASSERT_TRUE(ParseSimArgs(argv, &by_flag).ok()) << option.name;
    ASSERT_TRUE(
        ParseKeys(option.name + " = " + sample->second + "\n", &by_key).ok())
        << option.name;
    EXPECT_TRUE(by_flag == by_key) << option.name;
    EXPECT_FALSE(by_flag == SimArgs{}) << option.name << " changed nothing";
    ++checked;
  }
  EXPECT_EQ(checked, samples.size());

  // The one pair spelled differently in the two forms.
  SimArgs no_profile;
  SimArgs profile_false;
  ASSERT_TRUE(ParseSimArgs({"--no-profile"}, &no_profile).ok());
  ASSERT_TRUE(ParseKeys("profile = false\n", &profile_false).ok());
  EXPECT_TRUE(no_profile == profile_false);
  EXPECT_FALSE(no_profile.run.profile);
}

TEST(SimOptions, FlagsAfterConfigOverrideTheFile) {
  const std::string path = ::testing::TempDir() + "driver_test_seed.conf";
  std::ofstream(path) << "scenario = fig6_pool_size, all\nseed = 7\n";
  SimArgs before;
  ASSERT_TRUE(ParseSimArgs({"--seed", "9", "--config", path}, &before).ok());
  EXPECT_EQ(before.run.seed, 7u);
  SimArgs after;
  ASSERT_TRUE(ParseSimArgs({"--config", path, "--seed", "9"}, &after).ok());
  EXPECT_EQ(after.run.seed, 9u);
  EXPECT_EQ(after.scenarios, std::vector<std::string>{"fig6_pool_size"});
  EXPECT_TRUE(after.all);

  SimArgs missing;
  EXPECT_EQ(cli::ExitCode(ParseSimArgs({"--config", path + ".missing"},
                                     &missing)),
            1);
  std::remove(path.c_str());
}

TEST(SimOptions, InRepoConfigsAreAccepted) {
  // examples/experiment.conf, fault plan included.
  std::ifstream file(std::string(ACTYP_SOURCE_DIR) +
                     "/examples/experiment.conf");
  std::ostringstream text;
  text << file.rdbuf();
  SimArgs example;
  ASSERT_TRUE(ParseKeys(text.str(), &example).ok());
  EXPECT_EQ(example.scenarios, std::vector<std::string>{"fig4_pools_lan"});
  EXPECT_EQ(example.run.time_scale, 0.25);
  EXPECT_NE(example.run.fault_plan_text.find("crash"), std::string::npos);

  // A chaos repro bundle replays its trial.
  chaos::TrialParams params;
  params.time_scale = 0.2;
  const chaos::ChaosTrial trial =
      chaos::ChaosPlanGenerator(chaos::ChaosRanges{},
                                chaos::ActiveWindowSeconds(params))
          .Generate(11);
  SimArgs bundle;
  ASSERT_TRUE(ParseKeys(chaos::ReproBundleText(trial, params), &bundle).ok());
  EXPECT_EQ(bundle.scenarios, std::vector<std::string>{"chaos_cell"});
  EXPECT_EQ(bundle.run.seed, trial.seed);
  EXPECT_EQ(bundle.run.regime_text, trial.regime.Serialize());
  EXPECT_EQ(bundle.run.fault_plan_text, trial.plan.Serialize());
  EXPECT_TRUE(bundle.json);
}

TEST(SimOptions, HelpListsEveryOption) {
  const std::string help = driver::SimHelp();
  SimArgs args;
  for (const cli::Option& option : driver::SimOptions(&args)) {
    const std::string lead = option.forms == cli::Forms::kKeyOnly
                                 ? "  " + option.name + " = "
                                 : "  --" + option.name;
    EXPECT_NE(help.find(lead), std::string::npos) << option.name;
  }
  EXPECT_EQ(help.find("profile-sampling"), std::string::npos);
}

}  // namespace
}  // namespace actyp
