// lossy_lan / lossy_wan: the Fig. 4 LAN and Fig. 5 WAN deployments
// under message loss. The fault subsystem opens a loss window covering
// the whole run at each swept probability; clients arm a give-up timer
// so a dropped request or reply costs one failed interaction instead of
// a deadlocked client. Success rate falls and the surviving queries
// keep their latency — the pipeline has no retransmission, exactly like
// the 2001 prototype's "queries propagate via TCP or UDP" datagram
// mode.
//
// The WAN run (clients at Purdue, service at UPC, ~60 ms RTT) is the
// regime the paper's LAN-and-WAN pool evaluation implies but never
// measures. Its loss=0 row reproduces the fig5_pools_wan conditions at
// 4 pools, so running both scenarios in one invocation shows the
// degradation directly: the WAN run pays both the RTT floor *and* a
// (1-p)^4 success-rate decay, and every timeout costs a 5 s client
// give-up instead of a LAN-fast failure reply.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunLossSweep(const ScenarioRunOptions& options, bool wan,
                            std::size_t default_machines, double give_up_s,
                            std::uint64_t seed_base, std::string title,
                            std::string note) {
  const std::size_t machines = options.machines.value_or(default_machines);
  bench::Sweep sweep(options, std::move(title));
  for (const std::size_t clients : bench::SweepOr(options.clients, {16})) {
    int index = 0;
    for (const double loss : {0.0, 0.01, 0.05, 0.10, 0.20}) {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = 4;
      config.clients = clients;
      config.wan = wan;
      config.client_request_timeout = bench::ScaledSeconds(options, give_up_s);
      if (loss > 0) config.fault_plan.AddLossWindow(loss);
      config.seed = bench::CellSeed(options, seed_base,
                                    static_cast<std::uint64_t>(index) * 100 +
                                        clients);
      ++index;
      ScenarioCell row;
      row.dims.emplace_back("loss", loss);
      row.dims.emplace_back("clients", static_cast<double>(clients));
      sweep.Add(std::move(config), std::move(row), kStandard | kFault);
    }
  }
  return sweep.Run(std::move(note));
}

const ScenarioRegistrar kLossyLan(
    "lossy_lan", "Fig. 4 LAN deployment under swept message-loss rates",
    [](const ScenarioRunOptions& options) {
      return RunLossSweep(
          options, /*wan=*/false, 1600, 2.0, 9100,
          "Fault — message loss on a LAN, 4 pools, 1600 machines",
          "shape check: success_rate decays roughly like the probability "
          "that all four message legs survive ((1-p)^4); completed "
          "throughput falls with it while the latency of surviving "
          "queries stays near the loss-free LAN figure.");
    });

const ScenarioRegistrar kLossyWan(
    "lossy_wan", "Fig. 5 WAN deployment under swept message-loss rates",
    [](const ScenarioRunOptions& options) {
      return RunLossSweep(
          options, /*wan=*/true, 3200, 5.0, 9200,
          "Fault — message loss across a ~60ms-RTT WAN, 4 pools, 3200 "
          "machines",
          "shape check: the loss=0 row matches fig5_pools_wan at 4 pools; "
          "as p rises the success rate decays like (1-p)^4 and mean "
          "response climbs because every lost leg costs a 5s give-up "
          "timer on top of the WAN RTT floor.");
    });

}  // namespace
}  // namespace actyp
