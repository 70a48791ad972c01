// Ablation: QoS fan-out (§6 — "higher levels of QoS could be provided by
// simultaneously forwarding a given query to multiple pool managers and
// pool objects, and utilizing the best response"). Replicated pools give
// the duplicates somewhere to go; the reintegrator keeps the best
// response and releases the rest.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunAblQosFanout(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "abl_qos_fanout";
  report.title = "Ablation — QoS fan-out (best-of-N duplicates)";
  std::vector<bench::CellTask> tasks;
  for (const std::uint32_t fanout : {1u, 2u, 4u}) {
    ScenarioConfig config;
    config.machines = options.machines.value_or(1600);
    config.clusters = 1;
    config.pool_replicas = 4;  // duplicates land on distinct replicas
    config.pool_managers = 4;
    config.qos_fanout = fanout;
    config.clients = options.clients.value_or(8);
    config.seed = bench::CellSeed(options, 4242, fanout);
    tasks.push_back([config = std::move(config), &options, fanout] {
      const auto metrics =
          bench::RunCell(config, options, bench::ScaledSeconds(options, 3),
                         bench::ScaledSeconds(options, 20));
      ScenarioCell cell;
      cell.dims.emplace_back("fanout", static_cast<double>(fanout));
      metrics.Select(bench::kStandard, &cell);
      return cell;
    });
  }
  bench::RunCellTasks(options, std::move(tasks), &report);
  report.note =
      "shape check: fan-out trades aggregate work for tail latency — the "
      "p95 narrows toward the p50 as N grows, while total pool work (and "
      "released duplicates) increases.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "abl_qos_fanout",
    "duplicate queries to N replicas, reintegrator keeps the best response",
    RunAblQosFanout);

}  // namespace
}  // namespace actyp
