// lossy_wan: the Fig. 5 WAN deployment (clients at Purdue, service at
// UPC, ~60 ms RTT) under message loss — the regime the paper's
// LAN-and-WAN pool evaluation implies but never measures. The loss=0
// row reproduces the fig5_pools_wan conditions at 4 pools, so running
// both scenarios in one invocation shows the degradation directly: the
// WAN run pays both the RTT floor *and* a (1-p)^4 success-rate decay,
// and every timeout costs a 5 s client give-up instead of a LAN-fast
// failure reply.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunLossyWan(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "lossy_wan";
  report.title =
      "Fault — message loss across a ~60ms-RTT WAN, 4 pools, 3200 machines";
  const std::size_t machines = options.machines.value_or(3200);
  std::vector<bench::CellTask> tasks;
  for (const std::size_t clients : bench::SweepOr(options.clients, {16})) {
    int index = 0;
    for (const double loss : {0.0, 0.01, 0.05, 0.10, 0.20}) {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = 4;
      config.clients = clients;
      config.wan = true;
      config.client_request_timeout = bench::ScaledSeconds(options, 5.0);
      if (loss > 0) config.fault_plan.AddLossWindow(loss);
      config.seed = bench::CellSeed(options, 9200,
                                    static_cast<std::uint64_t>(index) * 100 +
                                        clients);
      ++index;
      tasks.push_back([config = std::move(config), &options, loss, clients] {
        const auto metrics =
            bench::RunCell(config, options, bench::ScaledSeconds(options, 3),
                           bench::ScaledSeconds(options, 15));
        ScenarioCell cell;
        cell.dims.emplace_back("loss", loss);
        cell.dims.emplace_back("clients", static_cast<double>(clients));
        metrics.Select(bench::kStandard | bench::kFault, &cell);
        return cell;
      });
    }
  }
  bench::RunCellTasks(options, std::move(tasks), &report);
  report.note =
      "shape check: the loss=0 row matches fig5_pools_wan at 4 pools; as p "
      "rises the success rate decays like (1-p)^4 and mean response climbs "
      "because every lost leg costs a 5s give-up timer on top of the WAN "
      "RTT floor.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "lossy_wan",
    "Fig. 5 WAN deployment under swept message-loss rates",
    RunLossyWan);

}  // namespace
}  // namespace actyp
