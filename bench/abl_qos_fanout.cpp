// Ablation: QoS fan-out (§6 — "higher levels of QoS could be provided by
// simultaneously forwarding a given query to multiple pool managers and
// pool objects, and utilizing the best response"). Replicated pools give
// the duplicates somewhere to go; the reintegrator keeps the best
// response and releases the rest.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunAblQosFanout(const ScenarioRunOptions& options) {
  bench::Sweep sweep(options,
                    "Ablation — QoS fan-out (best-of-N duplicates)");
  for (const std::uint32_t fanout : {1u, 2u, 4u}) {
    ScenarioConfig config;
    config.machines = options.machines.value_or(1600);
    config.clusters = 1;
    config.pool_replicas = 4;  // duplicates land on distinct replicas
    config.pool_managers = 4;
    config.qos_fanout = fanout;
    config.clients = options.clients.value_or(8);
    config.seed = bench::CellSeed(options, 4242, fanout);
    ScenarioCell row;
    row.dims.emplace_back("fanout", static_cast<double>(fanout));
    sweep.Add(std::move(config), std::move(row), kStandard, 3, 20);
  }
  return sweep.Run(
      "shape check: fan-out trades aggregate work for tail latency — the "
      "p95 narrows toward the p50 as N grows, while total pool work (and "
      "released duplicates) increases.");
}

const ScenarioRegistrar kRegistrar(
    "abl_qos_fanout",
    "duplicate queries to N replicas, reintegrator keeps the best response",
    RunAblQosFanout);

}  // namespace
}  // namespace actyp
