// ondemand_churn: on-demand pool creation (`precreate_pools = false`)
// under pool churn — the paper's "active" yellow-pages behaviour, where
// categories are materialized from the observed query mix, exercised in
// a hostile regime. The injector repeatedly kills a random live pool
// instance straight out of the directory (node removed, registration
// dropped, claim freed); the next query for that category misses in
// the directory, so the pool manager asks the proxy to rebuild the
// pool on the fly. `pools_created` counts those rebuilds: the churn
// premium the proxy pays to keep the service converged.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunOndemandChurn(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "ondemand_churn";
  report.title =
      "Fault — on-demand pool creation under pool churn, 4 categories (LAN)";
  const std::size_t machines = options.machines.value_or(1600);
  const std::size_t clients = options.clients.value_or(16);

  int index = 0;
  std::vector<bench::CellTask> tasks;
  for (const double rate : {0.0, 0.2, 0.5, 1.0}) {
    ScenarioConfig config;
    config.machines = machines;
    config.clusters = 4;
    config.clients = clients;
    config.precreate_pools = false;
    config.client_request_timeout = bench::ScaledSeconds(options, 2.0);
    if (rate > 0) config.fault_plan.AddChurn(rate, 0, "pools");
    config.seed = bench::CellSeed(options, 9400,
                                  static_cast<std::uint64_t>(index) * 100 +
                                      clients);
    ++index;
    tasks.push_back([config = std::move(config), &options, rate] {
      const auto metrics =
          bench::RunCell(config, options, bench::ScaledSeconds(options, 3),
                         bench::ScaledSeconds(options, 15));
      ScenarioCell cell;
      cell.dims.emplace_back("rate", rate);
      metrics.Select(bench::kStandard | bench::kFault, &cell);
      metrics.Select({"pools_created"}, &cell);
      return cell;
    });
  }
  bench::RunCellTasks(options, std::move(tasks), &report);
  report.note =
      "shape check: rate=0 pays only the cold-start burst (queries racing "
      "an unbuilt category can spawn duplicate replicas); under churn every "
      "kill is followed by an on-demand rebuild, and success rate dips only "
      "for the queries in flight during one — on-demand aggregation makes "
      "pool death a transient, not an outage.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "ondemand_churn",
    "on-demand pool re-creation while pool instances are being killed",
    RunOndemandChurn);

}  // namespace
}  // namespace actyp
