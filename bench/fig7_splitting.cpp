// Figure 7: effect of splitting a hot 3,200-machine pool into 1) two
// pools of 1,600 and 2) four pools of 800. A query fans out to every
// segment; concurrent searches run over the partitions and the
// reintegrator aggregates the results.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunFig7(const ScenarioRunOptions& options) {
  const std::size_t machines = options.machines.value_or(3200);
  bench::Sweep sweep(options, "Fig. 7 — splitting a 3,200-machine pool");
  for (const std::uint32_t segments : {1u, 2u, 4u}) {
    for (const std::size_t clients : bench::SweepOr(
             options.clients, {1, 10, 20, 30, 40, 50, 60, 70})) {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = 1;
      config.pool_segments = segments;
      config.clients = clients;
      config.seed = bench::CellSeed(options, 7000, segments * 100 + clients);
      ScenarioCell row;
      row.dims.emplace_back("segments", static_cast<double>(segments));
      row.dims.emplace_back("clients", static_cast<double>(clients));
      sweep.Add(std::move(config), std::move(row), kStandard);
    }
  }
  return sweep.Run(
      "shape check: splitting improves response time at every client "
      "count; 4x800 beats 2x1600 beats 1x3200 (concurrent partial scans, "
      "paper Fig. 7).");
}

const ScenarioRegistrar kRegistrar(
    "fig7_splitting",
    "splitting one hot pool into 2x1600 / 4x800 concurrent segments",
    RunFig7);

}  // namespace
}  // namespace actyp
