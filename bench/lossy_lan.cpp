// lossy_lan: the Fig. 4 LAN deployment under message loss. The fault
// subsystem opens a loss window covering the whole run at each swept
// probability; clients arm a give-up timer so a dropped request or
// reply costs one failed interaction instead of a deadlocked client.
// Success rate falls and the surviving queries keep their LAN latency —
// the pipeline has no retransmission, exactly like the 2001 prototype's
// "queries propagate via TCP or UDP" datagram mode.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunLossyLan(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "lossy_lan";
  report.title = "Fault — message loss on a LAN, 4 pools, 1600 machines";
  const std::size_t machines = options.machines.value_or(1600);
  std::vector<bench::CellTask> tasks;
  for (const std::size_t clients : bench::SweepOr(options.clients, {16})) {
    int index = 0;
    for (const double loss : {0.0, 0.01, 0.05, 0.10, 0.20}) {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = 4;
      config.clients = clients;
      config.client_request_timeout = bench::ScaledSeconds(options, 2.0);
      if (loss > 0) config.fault_plan.AddLossWindow(loss);
      config.seed = bench::CellSeed(options, 9100,
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
      "shape check: success_rate decays roughly like the probability that "
      "all four message legs survive ((1-p)^4); completed throughput falls "
      "with it while the latency of surviving queries stays near the "
      "loss-free LAN figure.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "lossy_lan", "Fig. 4 LAN deployment under swept message-loss rates",
    RunLossyLan);

}  // namespace
}  // namespace actyp
