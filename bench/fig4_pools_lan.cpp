// Figures 4 and 5: effect of the number of pools on response time,
// one experiment on two topologies. 3,200 machines uniformly
// distributed across pools; client queries distributed randomly across
// pools; the ActYP service on a 12-core server, as in the paper's
// 12-processor Alpha.
//   - Fig. 4 (LAN): clients and the service in one site.
//   - Fig. 5 (WAN): clients at one site (Purdue), the service at
//     another (UPC, Spain), ~30 ms one-way latency.
//
// Expected shape (paper): response time falls steeply as pools go from
// 1-2 to 16, flattening as fixed pipeline costs dominate. Across the
// WAN pools still help, but network latency limits the reduction (the
// curves flatten onto an RTT floor).
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunPoolsSweep(const ScenarioRunOptions& options, bool wan,
                             std::uint64_t seed_base, std::string title,
                             std::string note) {
  const std::size_t machines = options.machines.value_or(3200);
  bench::Sweep sweep(options, std::move(title));
  for (const std::size_t clients :
       bench::SweepOr(options.clients, {8, 16, 32, 64})) {
    for (const std::size_t pools : {1, 2, 4, 8, 16}) {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = pools;
      config.clients = clients;
      config.wan = wan;
      config.seed = bench::CellSeed(options, seed_base, pools * 100 + clients);
      ScenarioCell row;
      row.dims.emplace_back("pools", static_cast<double>(pools));
      row.dims.emplace_back("clients", static_cast<double>(clients));
      sweep.Add(std::move(config), std::move(row), kStandard);
    }
  }
  return sweep.Run(std::move(note));
}

const ScenarioRegistrar kFig4(
    "fig4_pools_lan",
    "pools vs response time, clients and service in one LAN site",
    [](const ScenarioRunOptions& options) {
      return RunPoolsSweep(
          options, /*wan=*/false, 4000,
          "Fig. 4 — pools vs response time (LAN), 3200 machines",
          "shape check: response time decreases monotonically with pools "
          "for every client count; the 64-client curve spans roughly an "
          "order of magnitude from 1-2 pools to 16 pools (paper Fig. 4: "
          "~1.2s -> ~0.1s).");
    });

const ScenarioRegistrar kFig5(
    "fig5_pools_wan",
    "pools vs response time with clients across a ~60ms-RTT WAN link",
    [](const ScenarioRunOptions& options) {
      return RunPoolsSweep(
          options, /*wan=*/true, 5000,
          "Fig. 5 — pools vs response time (WAN, ~60ms RTT), 3200 machines",
          "shape check: curves mirror Fig. 4 but flatten onto a floor of a "
          "few times the WAN RTT (4 message legs x ~30ms one-way) instead "
          "of continuing to fall — 'network latency limits the "
          "reduction'.");
    });

}  // namespace
}  // namespace actyp
