// tcp_roundtrip: end-to-end exercise of the real TCP transport
// (src/net/tcp.cpp) through the scenario driver. A loopback TcpServer
// speaking the production wire format (4-byte frame + encoded Message)
// fronts the query-manager entry of a simulated pipeline, and the
// scenario issues real socket calls against it; each connection thread
// hands its request to the simulation through simnet::CallGateway.
// Latencies are wall-clock (the socket round trip plus what the
// simulator costs on the host; modelled service times pass in
// simulated time), so --jobs is deliberately ignored here. The
// call/success counters are deterministic: the actyp_sim_tcp_smoke
// ctest checks ok == calls in both modes.
#include <atomic>
#include <chrono>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "net/tcp.hpp"
#include "simnet/call_gateway.hpp"
#include "workload/generator.hpp"

namespace actyp {
namespace {

ScenarioReport RunTcpRoundtrip(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "tcp_roundtrip";
  report.title = "TCP transport — loopback roundtrips through the pipeline";

  // --- simulated pipeline, pools created on demand, no sim clients ---
  ScenarioConfig config;
  config.machines = options.machines.value_or(64);
  config.clusters = 2;
  config.precreate_pools = false;
  config.clients = 0;
  config.seed = options.seed.value_or(411);
  SimScenario scenario(config);
  simnet::CallGateway gateway(&scenario.network());

  // --- TCP frontend on an ephemeral loopback port ---
  net::TcpServer server;
  // Fault injection at the socket layer: every 5th reply in the second
  // (faulty) phase is dropped — alternating a hard connection reset and
  // a truncated frame — and the retrying client must still land every
  // call. Installed before Start (the hook contract): the counters are
  // atomic because the hook runs on connection threads.
  std::atomic<int> reply_counter{0};
  std::atomic<bool> faults_on{false};
  server.SetFaultHook([&reply_counter, &faults_on]() -> net::TcpFault {
    if (!faults_on.load()) return {};
    const int n = reply_counter.fetch_add(1);
    if (n % 5 != 4) return {};
    net::TcpFault fault;
    fault.action = (n / 5) % 2 == 0 ? net::TcpFault::Action::kReset
                                    : net::TcpFault::Action::kTruncate;
    fault.bytes = 3;
    return fault;
  });
  const Status started = server.Start(
      0, [&gateway](const net::Message& request) {
        return gateway.Call("qm0", request);
      });

  const std::size_t calls = std::max<std::size_t>(
      4, static_cast<std::size_t>(40.0 * options.time_scale));
  struct Phase {
    const char* label;
    bool faulty;
  };
  const Phase phases[] = {{"clean", false}, {"reset", true}};
  Rng rng(config.seed);
  workload::QuerySpec query_spec;
  query_spec.cluster_count = config.clusters;
  workload::QueryGenerator generator(query_spec);
  for (const Phase& phase : phases) {
    faults_on.store(phase.faulty);
    std::uint64_t ok = 0;
    std::uint64_t failures = 0;
    RunningStats latency_ms;
    if (started.ok()) {
      for (std::size_t i = 0; i < calls; ++i) {
        net::Message request{net::msg::kQuery};
        request.body = generator.Next(rng);
        const auto begin = std::chrono::steady_clock::now();
        // The faulty phase survives one reset/truncation per call via
        // the retrying client; the clean phase uses single-shot calls.
        const auto reply =
            phase.faulty
                ? net::TcpClient::CallWithRetry("127.0.0.1", server.port(),
                                                request, 2)
                : net::TcpClient::Call("127.0.0.1", server.port(), request);
        const auto end = std::chrono::steady_clock::now();
        if (reply.ok() && reply->type == net::msg::kAllocation) {
          ++ok;
          latency_ms.Add(
              std::chrono::duration<double, std::milli>(end - begin).count());
        } else {
          ++failures;
        }
      }
    }
    ScenarioCell cell;
    cell.labels.emplace_back("mode", phase.label);
    cell.dims.emplace_back("calls", static_cast<double>(calls));
    cell.metrics.emplace_back("ok", static_cast<double>(ok));
    cell.metrics.emplace_back("failures",
                              static_cast<double>(failures +
                                                  (started.ok() ? 0 : calls)));
    cell.metrics.emplace_back("mean_ms", latency_ms.mean());
    cell.metrics.emplace_back("max_ms", latency_ms.max());
    report.cells.push_back(std::move(cell));
  }
  if (started.ok()) server.Stop();

  report.note =
      "every call crosses a real loopback socket into the simulated "
      "pipeline and back; ok == calls is the invariant for both modes — "
      "the reset mode injects connection resets and partial frames at "
      "the socket layer and the retrying client absorbs them (latencies "
      "are wall-clock and excluded from deterministic perf diffs). The "
      "modelled service times, pool creation's 25 ms included, pass in "
      "simulated time, so a latency is the socket round trip plus the "
      "simulator's host cost.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "tcp_roundtrip",
    "real TCP loopback roundtrips through the simulated pipeline",
    RunTcpRoundtrip, /*wall_clock=*/true);

}  // namespace
}  // namespace actyp
