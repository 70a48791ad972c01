// Figure 4: effect of the number of pools on response time in a LAN
// configuration. 3,200 machines uniformly distributed across pools;
// client queries distributed randomly across pools; clients and the
// ActYP service in one site (service on a 12-core server, as in the
// paper's 12-processor Alpha).
//
// Expected shape (paper): response time falls steeply as pools go from
// 1-2 to 16, flattening as fixed pipeline costs dominate.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunFig4(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "fig4_pools_lan";
  report.title = "Fig. 4 — pools vs response time (LAN), 3200 machines";
  const std::size_t machines = options.machines.value_or(3200);
  std::vector<bench::CellTask> tasks;
  for (const std::size_t clients :
       bench::SweepOr(options.clients, {8, 16, 32, 64})) {
    for (const std::size_t pools : {1, 2, 4, 8, 16}) {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = pools;
      config.clients = clients;
      config.seed = bench::CellSeed(options, 4000, pools * 100 + clients);
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
      "shape check: response time decreases monotonically with pools for "
      "every client count; the 64-client curve spans roughly an order of "
      "magnitude from 1-2 pools to 16 pools (paper Fig. 4: ~1.2s -> ~0.1s).";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "fig4_pools_lan",
    "pools vs response time, clients and service in one LAN site", RunFig4);

}  // namespace
}  // namespace actyp
