// big_wan: the LP-parallel flagship — an 8-site WAN deployment an
// order of magnitude beyond the paper's fleets (40,000 machines vs
// Fig. 4's 3,200), built with ScenarioConfig::wan_sites so the sites
// run as logical processes under the conservative-window engine.
// Every site owns 4 of the 32 clusters and a full service stack;
// clients stripe queries across the whole cluster space, so 7/8 of
// requests cross the WAN and exercise the inter-LP mailboxes.
//
// This is the perf-smoke scenario for --cell-jobs: the report is
// byte-identical for any worker count (sharding is fixed by wan_sites,
// not by --cell-jobs), while wall clock drops as workers are added —
// CI asserts the serial-vs-4-workers speedup on exactly this scenario.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunBigWan(const ScenarioRunOptions& options) {
  const std::size_t machines = options.machines.value_or(40000);
  const std::size_t clients = options.clients.value_or(96);
  bench::Sweep sweep(options,
                     "big WAN — 8-site LP-parallel deployment, 40k machines, "
                     "linear least-load");
  ScenarioConfig config;
  config.machines = machines;
  config.clusters = 32;
  config.wan_sites = 8;
  config.query_managers = 2;  // per site
  config.pool_managers = 2;   // per site
  config.clients = clients;
  config.policy = "linear-least-load";
  config.seed = bench::CellSeed(options, 910000, 0);
  ScenarioCell row;
  row.dims.emplace_back("sites", 8.0);
  row.dims.emplace_back("machines", static_cast<double>(machines));
  row.dims.emplace_back("clients", static_cast<double>(clients));
  sweep.Add(std::move(config), std::move(row), kStandard | kEngine);
  return sweep.Run(
      "shape check: completed > 0 with failures 0 on the healthy "
      "network; the report (and --trace-out) is byte-identical for any "
      "--cell-jobs value, and wall clock scales down with workers until "
      "the 8 LPs are saturated.");
}

const ScenarioRegistrar kRegistrar(
    "big_wan",
    "8-site LP-parallel WAN deployment, 40k machines (use --cell-jobs N)",
    RunBigWan);

}  // namespace
}  // namespace actyp
