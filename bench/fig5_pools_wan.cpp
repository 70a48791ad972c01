// Figure 5: effect of the number of pools on response time in a WAN
// configuration — clients at one site (Purdue), the ActYP service at
// another (UPC, Spain), ~30 ms one-way latency. Pools still help, but
// network latency limits the reduction (the curves flatten onto an RTT
// floor).
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunFig5(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "fig5_pools_wan";
  report.title =
      "Fig. 5 — pools vs response time (WAN, ~60ms RTT), 3200 machines";
  const std::size_t machines = options.machines.value_or(3200);
  std::vector<bench::CellTask> tasks;
  for (const std::size_t clients :
       bench::SweepOr(options.clients, {8, 16, 32, 64})) {
    for (const std::size_t pools : {1, 2, 4, 8, 16}) {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = pools;
      config.clients = clients;
      config.wan = true;
      config.seed = bench::CellSeed(options, 5000, pools * 100 + clients);
      tasks.push_back([config = std::move(config), &options, pools, clients] {
        const auto metrics =
            bench::RunCell(config, options, bench::ScaledSeconds(options, 3),
                           bench::ScaledSeconds(options, 15));
        ScenarioCell cell;
        cell.dims.emplace_back("pools", static_cast<double>(pools));
        cell.dims.emplace_back("clients", static_cast<double>(clients));
        metrics.Select(bench::kStandard, &cell);
        return cell;
      });
    }
  }
  bench::RunCellTasks(options, std::move(tasks), &report);
  report.note =
      "shape check: curves mirror Fig. 4 but flatten onto a floor of a few "
      "times the WAN RTT (4 message legs x ~30ms one-way) instead of "
      "continuing to fall — 'network latency limits the reduction'.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "fig5_pools_wan",
    "pools vs response time with clients across a ~60ms-RTT WAN link",
    RunFig5);

}  // namespace
}  // namespace actyp
