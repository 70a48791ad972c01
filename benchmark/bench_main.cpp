// actyp_bench: one end-to-end repeat of a workload in this process.
//
//   actyp_bench --workload lan_indexed [--seed 1] [--window-scale 0.25]
//
// Builds the scenario at least kMinSetups times and until the
// constructions have taken kSetupBudgetS; each is destroyed before the
// next is built and the last one is kept. setup_s is the fastest
// construction: other processes on the host can only slow one down, so
// the fastest tracks the set-up code itself, as the fastest chunk does
// for the host rates (run.py reports the median over repeats). Then it
// warms up, measures one window and prints one JSON line. No tracing of
// any kind is linked in.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>

#include "workloads.hpp"

namespace {
constexpr std::uint64_t kMinSetups = 5;
constexpr double kSetupBudgetS = 0.5;
}  // namespace

int main(int argc, char** argv) {
  using namespace actyp;
  using namespace actyp::benchmark;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  const ScenarioConfig config = args.workload->make(args.seed);
  std::unique_ptr<SimScenario> scenario;
  double fastest = std::numeric_limits<double>::infinity();
  double spent = 0;
  std::uint64_t setups = 0;
  while (setups < kMinSetups || spent < kSetupBudgetS) {
    scenario.reset();
    const double start = WallSeconds();
    scenario = std::make_unique<SimScenario>(config);
    const double took = WallSeconds() - start;
    fastest = std::min(fastest, took);
    spent += took;
    ++setups;
  }

  const WindowResult result = MeasureWindow(
      *scenario, args.workload->base_window_s * args.window_scale);

  JsonLine out;
  AddWindowFields(args, result, &out);
  out.Add("setup_s", fastest);
  std::printf("%s\n", out.str().c_str());
  return 0;
}
