// pool_churn: precreated pools under churn. Two fault regimes against
// the same 4-pool LAN deployment:
//   - machine churn: the injector crashes one random up machine per
//     tick (white pages flips to Down, the owning pool benches it on
//     its next refresh sweep and restores it after the downtime);
//   - pool-process churn: the injector crashes a random precreated
//     pool node (directory unregistration + claim handling included)
//     and restarts a fresh instance after the downtime, which re-adopts
//     or re-claims its machine set — the §5.2.3 lifecycle under faults.
// Queries that race a dead pool fail fast at the pool manager or burn
// the client's give-up timer, so success rate degrades with rate.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunPoolChurn(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "pool_churn";
  report.title = "Fault — machine & pool-process churn, 4 pools (LAN)";
  const std::size_t machines = options.machines.value_or(1600);
  const std::size_t clients = options.clients.value_or(16);

  struct Regime {
    const char* label;
    const char* target;
    double rate;      // crashes per simulated second
    double downtime;  // seconds a victim stays down
  };
  const Regime regimes[] = {
      {"none", "machines", 0.0, 0.0},
      {"machines", "machines", 0.5, 5.0},
      {"machines", "machines", 2.0, 5.0},
      {"machines", "machines", 5.0, 5.0},
      {"pools", "pool.*", 0.2, 3.0},
      {"pools", "pool.*", 1.0, 3.0},
  };

  int index = 0;
  std::vector<bench::CellTask> tasks;
  for (const Regime& regime : regimes) {
    ScenarioConfig config;
    config.machines = machines;
    config.clusters = 4;
    config.clients = clients;
    config.client_request_timeout = bench::ScaledSeconds(options, 2.0);
    if (regime.rate > 0) {
      config.fault_plan.AddChurn(regime.rate, Seconds(regime.downtime),
                                 regime.target);
    }
    config.seed = bench::CellSeed(options, 9300,
                                  static_cast<std::uint64_t>(index) * 100 +
                                      clients);
    ++index;
    tasks.push_back([config = std::move(config), &options, regime] {
      const auto metrics =
          bench::RunCell(config, options, bench::ScaledSeconds(options, 3),
                         bench::ScaledSeconds(options, 15));
      ScenarioCell cell;
      cell.labels.emplace_back("churn", regime.label);
      cell.dims.emplace_back("rate", regime.rate);
      metrics.Select(bench::kStandard | bench::kFault | bench::kChurn, &cell);
      return cell;
    });
  }
  bench::RunCellTasks(options, std::move(tasks), &report);
  report.note =
      "shape check: machine churn barely moves the needle (pools bench the "
      "down machine and pick another of the ~400 per pool), while pool-"
      "process churn costs real failures during each instance's downtime — "
      "success rate falls as churn rate rises.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "pool_churn",
    "machine and pool-process churn against precreated pools",
    RunPoolChurn);

}  // namespace
}  // namespace actyp
