// Multi-PM scaling sweep (beyond the paper): grows the pool-manager
// tier — the stage that maps signatures to pool instances — against a
// fixed fleet split into 8 pools, under the indexed least-load policy.
// Queries are spread over 2 query managers so the entry stage is not
// the limiter; the sweep shows where the mapping tier stops being one.
// Composes with --loss / --churn-rate / --fault-plan; see qm_scaling
// for the sel_cost / refresh_cost metric semantics.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunPmScaling(const ScenarioRunOptions& options) {
  const std::size_t machines = options.machines.value_or(1600);
  bench::Sweep sweep(
      options,
      "PM scaling — pool managers vs response time, indexed least-load");
  for (const std::size_t clients :
       bench::SweepOr(options.clients, {16, 64})) {
    for (const std::size_t pms : {1, 2, 4, 8}) {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = 8;
      config.query_managers = 2;
      config.pool_managers = pms;
      config.clients = clients;
      config.policy = "least-load";  // the indexed fast path
      config.seed = bench::CellSeed(options, 220000, pms * 1000 + clients);
      ScenarioCell row;
      row.dims.emplace_back("pms", static_cast<double>(pms));
      row.dims.emplace_back("clients", static_cast<double>(clients));
      sweep.Add(std::move(config), std::move(row), kStandard | kEngine);
    }
  }
  return sweep.Run(
      "shape check: response time is flat or falling in pool managers "
      "for each client count (the PM stage pipelines; the pools bound "
      "throughput once PMs stop queueing), and sel_cost stays O(1)-flat "
      "thanks to the indexed policy.");
}

const ScenarioRegistrar kRegistrar(
    "pm_scaling",
    "pool-manager tier scaling under the indexed least-load policy",
    RunPmScaling);

}  // namespace
}  // namespace actyp
