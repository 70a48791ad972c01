// Multi-QM scaling sweep (beyond the paper): the 2001 prototype ran a
// single query manager; ScenarioConfig has always modelled N of them,
// but no experiment swept the dimension. This scenario grows the
// query-manager tier against a fixed 4-pool fleet under the *indexed*
// least-load policy, so the entry stage — not the pools' O(n) scan —
// is the bottleneck being scaled. Composes with --loss / --churn-rate /
// --fault-plan like every scenario; sel_cost reports entries examined
// per allocation (the indexed policy's asymptotic win over Fig. 6's
// linear search) and refresh_cost the cache entries re-read per
// periodic refresh tick. What the simulator costs on the host is
// measured by benchmark/, not here.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunQmScaling(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "qm_scaling";
  report.title =
      "QM scaling — query managers vs response time, indexed least-load";
  const std::size_t machines = options.machines.value_or(1600);
  std::vector<bench::CellTask> tasks;
  for (const std::size_t clients :
       bench::SweepOr(options.clients, {16, 64})) {
    for (const std::size_t qms : {1, 2, 4, 8}) {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = 4;
      config.query_managers = qms;
      config.pool_managers = 2;
      config.clients = clients;
      config.policy = "least-load";  // the indexed fast path
      config.seed = bench::CellSeed(options, 210000, qms * 1000 + clients);
      tasks.push_back([config = std::move(config), &options, qms, clients] {
        const auto metrics =
            bench::RunCell(config, options, bench::ScaledSeconds(options, 3),
                           bench::ScaledSeconds(options, 15));
        ScenarioCell cell;
        cell.dims.emplace_back("qms", static_cast<double>(qms));
        cell.dims.emplace_back("clients", static_cast<double>(clients));
        metrics.Select(bench::kStandard | bench::kEngine, &cell);
        return cell;
      });
    }
  }
  bench::RunCellTasks(options, std::move(tasks), &report);
  report.note =
      "shape check: with the indexed policy sel_cost stays O(1)-flat "
      "(a few entries per allocation, vs ~machines/pools for linear-*), "
      "and adding query managers keeps response flat or better while the "
      "64-client curve improves until the pool/PM tiers saturate.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "qm_scaling",
    "query-manager tier scaling under the indexed least-load policy",
    RunQmScaling);

}  // namespace
}  // namespace actyp
