// tcp_roundtrip: end-to-end exercise of the real TCP transport
// (src/net/tcp.cpp) through the scenario driver. The pipeline stages
// run on the threaded in-process transport; the query-manager entry is
// fronted by a loopback TcpServer speaking the production wire format
// (4-byte frame + encoded Message), and the scenario issues real socket
// calls against it. Latency numbers are wall-clock (this is the one
// scenario that is not a discrete-event simulation), so --jobs is
// deliberately ignored here; the call/success counters are
// deterministic and are what perf tracking diffs.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "pipeline/pool_manager.hpp"
#include "pipeline/proxy.hpp"
#include "pipeline/query_manager.hpp"
#include "workload/generator.hpp"

namespace actyp {
namespace {

// Bridges the synchronous TCP handler onto the asynchronous pipeline:
// replies land here by request id and wake the waiting handler.
class Gateway final : public net::Node {
 public:
  void OnMessage(const net::Envelope& envelope, net::NodeContext&) override {
    std::lock_guard<std::mutex> lock(mu_);
    replies_[envelope.message.Header(net::hdr::kRequestId)] =
        envelope.message;
    cv_.notify_all();
  }

  net::Message Await(const std::string& request_id) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(5), [&] {
          return replies_.count(request_id) > 0;
        })) {
      net::Message timeout{net::msg::kFailure};
      timeout.SetHeader(net::hdr::kError, "gateway timeout");
      return timeout;
    }
    net::Message reply = replies_.at(request_id);
    replies_.erase(request_id);
    return reply;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, net::Message> replies_;
};

ScenarioReport RunTcpRoundtrip(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "tcp_roundtrip";
  report.title = "TCP transport — loopback roundtrips through the pipeline";

  // --- substrate ---
  db::ResourceDatabase database;
  db::ShadowAccountRegistry shadows;
  db::PolicyRegistry policies;
  directory::DirectoryService directory;
  Rng rng(options.seed.value_or(411));
  workload::FleetSpec fleet;
  fleet.machine_count = options.machines.value_or(64);
  fleet.cluster_count = 2;
  BuildFleet(fleet, rng, &database, &shadows);

  // --- pipeline on the threaded transport, pools created on demand ---
  net::InProcNetwork network;
  pipeline::ProxyConfig proxy_config;
  network.AddNode("proxy",
                  std::make_shared<pipeline::ProxyServer>(
                      proxy_config, &network, &database, &directory, &shadows,
                      &policies),
                  {});
  pipeline::PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.proxies = {"proxy"};
  network.AddNode("pm0",
                  std::make_shared<pipeline::PoolManager>(pm_config,
                                                          &directory),
                  {});
  pipeline::QueryManagerConfig qm_config;
  qm_config.name = "qm0";
  qm_config.default_pool_managers = {"pm0"};
  network.AddNode("qm0", std::make_shared<pipeline::QueryManager>(qm_config),
                  {});
  auto gateway = std::make_shared<Gateway>();
  network.AddNode("gateway", gateway, {});

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
  std::mutex request_mu;
  int next_request = 0;
  const Status started =
      server.Start(0, [&](const net::Message& request) {
        std::string request_id;
        {
          std::lock_guard<std::mutex> lock(request_mu);
          request_id = std::to_string(++next_request);
        }
        net::Message query = request;
        query.SetHeader(net::hdr::kRequestId, request_id);
        query.SetHeader(net::hdr::kReplyTo, "gateway");
        network.Post("gateway", "qm0", std::move(query));
        return gateway->Await(request_id);
      });

  const std::size_t calls = std::max<std::size_t>(
      4, static_cast<std::size_t>(40.0 * options.time_scale));
  struct Phase {
    const char* label;
    bool faulty;
  };
  const Phase phases[] = {{"clean", false}, {"reset", true}};
  workload::QuerySpec query_spec;
  query_spec.cluster_count = 2;
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
  network.Shutdown();

  report.note =
      "every call crosses a real loopback socket into the threaded "
      "pipeline and back; ok == calls is the invariant for both modes — "
      "the reset mode injects connection resets and partial frames at "
      "the socket layer and the retrying client absorbs them (latencies "
      "are wall-clock and excluded from deterministic perf diffs). Clean "
      "mode runs first, so its first call for each pool builds that pool "
      "on demand: the threaded transport's Consume sleeps the modelled "
      "pool_create_fixed (25 ms) in real time, which sets clean's max_ms "
      "and lifts its mean at small call counts; reset mode finds the "
      "pools built.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "tcp_roundtrip",
    "real TCP loopback roundtrips through the threaded pipeline",
    RunTcpRoundtrip, /*wall_clock=*/true);

}  // namespace
}  // namespace actyp
