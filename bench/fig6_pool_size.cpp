// Figure 6: response time as a function of pool size, with clients
// continuously sending queries to the ActYP service (closed loop, zero
// think time). The linear growth with clients is a direct consequence of
// the linear search the scheduling processes run over the pool cache.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunFig6(const ScenarioRunOptions& options) {
  bench::Sweep sweep(options,
                    "Fig. 6 — response time vs clients for pool sizes");
  for (const std::size_t machines :
       bench::SweepOr(options.machines, {800, 1600, 3200})) {
    for (const std::size_t clients : bench::SweepOr(
             options.clients, {1, 5, 10, 20, 30, 40, 50, 60, 70})) {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = 1;  // a single pool of the given size
      config.clients = clients;
      config.seed = bench::CellSeed(options, 6000, machines + clients);
      ScenarioCell row;
      row.dims.emplace_back("machines", static_cast<double>(machines));
      row.dims.emplace_back("clients", static_cast<double>(clients));
      sweep.Add(std::move(config), std::move(row), kStandard);
    }
  }
  return sweep.Run(
      "shape check: for each pool size the response time grows linearly "
      "with the number of clients (single-server queue, linear scan); the "
      "slope grows with pool size (scan cost per query ~ machines).");
}

const ScenarioRegistrar kRegistrar(
    "fig6_pool_size",
    "response time vs closed-loop clients for 800/1600/3200-machine pools",
    RunFig6);

}  // namespace
}  // namespace actyp
