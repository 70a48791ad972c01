// actyp_chaos: randomized fault x workload sweeps with machine-checked
// invariants and automatic repro shrinking — the property-based fuzzer
// built on the repo's deterministic replay machinery.
//
//   smoke:   actyp_chaos --budget 6 --seed 11 --jobs 2 --time-scale 0.2
//   hunt:    actyp_chaos --budget 400 --seed 1 --jobs 8 --out bundles/
//   hostile: actyp_chaos --hostile --budget 8 --seed 5 --out bundles/
//
// Trial i is generated from (seed + i) alone — regime, fault plan, and
// scenario seed — runs deterministically, and checks the invariant
// catalogue (src/chaos/invariants.hpp) after a drain window. On any
// violation the driver delta-debugs the fault plan to a minimal
// still-failing plan, writes an `actyp_sim --config` repro bundle, and
// exits 1. Output is byte-identical for any --jobs value.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chaos/chaos_plan.hpp"
#include "chaos/shrinker.hpp"
#include "chaos/trial.hpp"
#include "obs/postmortem.hpp"
#include "option_table.hpp"

namespace {

using actyp::ScenarioCell;
using actyp::ScenarioReport;
using actyp::ScenarioRunOptions;

struct ChaosArgs {
  bool help = false;
  std::size_t budget = 16;
  std::uint64_t seed = 20010611;
  std::size_t jobs = 1;
  double time_scale = 1.0;
  double quiesce_s = 0.0;
  bool hostile = false;
  std::string out_dir = ".";
  std::size_t shrink_runs = 48;
  bool json = false;
};

std::vector<actyp::cli::Option> ChaosOptions(ChaosArgs* args) {
  using actyp::cli::Bool;
  using actyp::cli::Forms;
  using actyp::cli::Number;
  constexpr Forms kFlag = Forms::kFlagOnly;
  return {
      {"help", "", "print this help and exit", Bool(&args->help), kFlag},
      {"budget", "N", "independently-seeded trials to run (default 16)",
       Number(&args->budget, actyp::cli::kAtLeastOne), kFlag},
      {"seed", "S", "base seed; trial i uses seed S+i (default 20010611)",
       Number(&args->seed, actyp::cli::kNonNegative), kFlag},
      {"jobs", "M",
       "run trials on M worker threads; output is byte-identical for any M",
       Number(&args->jobs, actyp::cli::kAtLeastOne), kFlag},
      {"time-scale", "X", "scale simulated durations (default 1)",
       Number(&args->time_scale, actyp::cli::kPositive), kFlag},
      {"quiesce", "S",
       "extra drain floor in simulated seconds before invariants are "
       "judged (scaled by --time-scale)",
       Number(&args->quiesce_s, actyp::cli::kNonNegative,
              actyp::cli::Unit::kSeconds),
       kFlag},
      {"hostile", "",
       "widen the generator into regimes expected to wedge (zero request "
       "timeout under loss) — the seeded known-violation space",
       Bool(&args->hostile), kFlag},
      {"out", "DIR", "write repro bundles here (default .)",
       actyp::cli::Text(&args->out_dir), kFlag},
      {"shrink-runs", "N", "re-execution budget per shrink (default 48)",
       Number(&args->shrink_runs, actyp::cli::kAtLeastOne), kFlag},
      {"json", "", "emit the sweep report as JSON", Bool(&args->json),
       kFlag},
  };
}

std::string ChaosHelp() {
  ChaosArgs unused;
  return actyp::cli::Help(
      ChaosOptions(&unused),
      "usage: actyp_chaos [options]\n\n",
      "\nexit status: 0 clean, 1 invariant violations found, 2 usage\n");
}

}  // namespace

int main(int argc, char** argv) {
  ChaosArgs args;
  if (const auto status = actyp::cli::ApplyFlags(
          ChaosOptions(&args), std::vector<std::string>(argv + 1, argv + argc));
      !status.ok()) {
    std::fprintf(stderr,
                 "actyp_chaos: %s\nrun 'actyp_chaos --help' for usage\n",
                 status.message().c_str());
    return actyp::cli::ExitCode(status);
  }
  if (args.help) {
    std::fputs(ChaosHelp().c_str(), stdout);
    return 0;
  }
  const std::size_t budget = args.budget;

  actyp::chaos::TrialParams params;
  params.time_scale = args.time_scale;
  params.quiesce_floor_s = args.quiesce_s;

  actyp::chaos::ChaosRanges ranges;
  ranges.hostile = args.hostile;
  const actyp::chaos::ChaosPlanGenerator generator(
      ranges, actyp::chaos::ActiveWindowSeconds(params));

  std::vector<actyp::chaos::ChaosTrial> trials(budget);
  for (std::size_t i = 0; i < budget; ++i) {
    trials[i] = generator.Generate(args.seed + i);
  }

  // Run the budget on the scenarios' cell runner; every trial owns its
  // simulation, and rows land in trial order, so the report is
  // independent of --jobs.
  std::vector<actyp::chaos::TrialOutcome> outcomes(budget);
  ScenarioRunOptions options;
  options.jobs = args.jobs;
  actyp::bench::Sweep sweep(
      options, "Chaos sweep — " + std::to_string(budget) +
                   " seeded fault x workload trials");
  for (std::size_t i = 0; i < budget; ++i) {
    sweep.Add([&trials, &outcomes, &params, i] {
      outcomes[i] = actyp::chaos::RunTrial(trials[i], params);
      ScenarioCell cell;
      cell.labels.emplace_back("seed", std::to_string(trials[i].seed));
      cell.dims.emplace_back(
          "events", static_cast<double>(trials[i].plan.events.size()));
      outcomes[i].metrics.Select(
          {"completed", "failures", "success_rate", "lost", "retries",
           "machines_crashed", "services_crashed"},
          &cell);
      cell.metrics.emplace_back(
          "violations", static_cast<double>(outcomes[i].violations.size()));
      return cell;
    });
  }
  ScenarioReport report = sweep.Run("");
  report.scenario = "chaos";

  std::size_t violating = 0;
  for (const auto& outcome : outcomes) {
    if (!outcome.violations.empty()) ++violating;
  }
  report.note =
      violating == 0
          ? "all invariants held across the budget"
          : std::to_string(violating) + " trial(s) violated invariants";
  if (args.json) {
    actyp::WriteReportJson(report, std::cout);
  } else {
    actyp::WriteReportTable(report, std::cout);
  }

  if (violating == 0) return 0;

  // Findings: shrink serially in trial order (deterministic output),
  // then dump one repro bundle per violating trial.
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "actyp_chaos: cannot create '%s': %s\n",
                 args.out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  const actyp::chaos::Shrinker shrinker(
      [&params](const actyp::chaos::ChaosTrial& trial) {
        return actyp::chaos::RunTrial(trial, params).violations;
      },
      args.shrink_runs);
  for (std::size_t i = 0; i < budget; ++i) {
    if (outcomes[i].violations.empty()) continue;
    std::printf("trial %zu seed=%s: %s\n", i,
                std::to_string(trials[i].seed).c_str(),
                actyp::chaos::FormatViolations(outcomes[i].violations)
                    .c_str());
    const auto shrunk = shrinker.Shrink(trials[i]);
    const auto& minimal = shrunk.reproduced ? shrunk.trial : trials[i];
    if (shrunk.reproduced) {
      std::printf("  shrunk %zu -> %zu event(s) in %zu run(s), "
                  "reproducing %s\n",
                  trials[i].plan.events.size(),
                  minimal.plan.events.size(), shrunk.runs,
                  shrunk.invariant.c_str());
    } else {
      std::printf("  violation did not reproduce on re-run; dumping the "
                  "original plan\n");
    }
    const std::string path = args.out_dir + "/chaos_repro_seed" +
                             std::to_string(trials[i].seed) + ".conf";
    std::ofstream bundle(path);
    bundle << actyp::chaos::ReproBundleText(minimal, params);
    if (!bundle) {
      std::fprintf(stderr, "actyp_chaos: cannot write '%s'\n",
                   path.c_str());
      return 1;
    }
    bundle.close();
    std::printf("  repro bundle: %s\n", path.c_str());
    for (const auto& event : minimal.plan.events) {
      std::printf("    %s\n", event.Serialize().c_str());
    }
    // Re-run the minimal trial once more with the flight recorder and
    // gauge sampler armed, and dump the post-mortem next to the bundle.
    actyp::chaos::TrialCapture capture;
    const auto replay = actyp::chaos::RunTrial(minimal, params, &capture);
    actyp::obs::PostmortemBundle postmortem;
    postmortem.seed = minimal.seed;
    postmortem.regime = minimal.regime.Serialize();
    const auto& violations = replay.violations.empty()
                                 ? outcomes[i].violations
                                 : replay.violations;
    for (const auto& violation : violations) {
      postmortem.violations.push_back(violation.invariant + ": " +
                                      violation.detail);
    }
    for (const auto& event : minimal.plan.events) {
      postmortem.fault_events.push_back(event.Serialize());
    }
    postmortem.telemetry = std::move(capture.telemetry);
    postmortem.flight = std::move(capture.flight);
    const std::string pm_path = args.out_dir + "/chaos_postmortem_seed" +
                                std::to_string(minimal.seed) + ".jsonl";
    const auto pm_status =
        actyp::obs::WritePostmortemFile(postmortem, pm_path);
    if (!pm_status.ok()) {
      std::fprintf(stderr, "actyp_chaos: %s\n",
                   pm_status.ToString().c_str());
      return 1;
    }
    std::printf("  post-mortem dump: %s\n", pm_path.c_str());
  }
  return 1;
}
