// tcp_demo: the pipeline behind a real TCP frontend.
//
// The production PUNCH portal spoke to ActYP over TCP (§6: "queries
// propagate from one stage to the next via TCP or UDP"). This example
// builds the pipeline on the discrete-event simulator with pools created
// on demand, exposes the query-manager entry point on a loopback TCP
// socket, and issues real socket calls against it — the same wire
// format a remote network desktop would use. Each connection thread
// hands its request to the simulation through simnet::CallGateway.
//
//   ./build/tcp_demo
#include <cstdio>

#include "actyp/scenario.hpp"
#include "net/tcp.hpp"
#include "simnet/call_gateway.hpp"

using namespace actyp;

int main() {
  // --- pipeline on the simulator, pools created on demand ---
  ScenarioConfig config;
  config.machines = 64;
  config.clusters = 2;
  config.precreate_pools = false;
  config.clients = 0;
  config.seed = 3;
  SimScenario scenario(config);
  simnet::CallGateway gateway(&scenario.network());

  // --- TCP frontend ---
  net::TcpServer server;
  auto status = server.Start(0, [&gateway](const net::Message& request) {
    return gateway.Call("qm0", request);
  });
  if (!status.ok()) {
    std::printf("failed to start TCP server: %s\n",
                status.ToString().c_str());
    return 1;
  }
  std::printf("ActYP query manager listening on 127.0.0.1:%u\n\n",
              server.port());

  // --- a "remote network desktop" issues real socket calls ---
  for (const char* body :
       {"punch.rsrc.cluster = c0\npunch.user.login = demo\n",
        "punch.rsrc.cluster = c1\npunch.user.login = demo\n",
        "punch.rsrc.cluster = c0\npunch.user.login = demo\n"}) {
    net::Message request{net::msg::kQuery};
    request.body = body;
    auto reply = net::TcpClient::Call("127.0.0.1", server.port(), request);
    if (!reply.ok()) {
      std::printf("call failed: %s\n", reply.status().ToString().c_str());
      continue;
    }
    if (reply->type == net::msg::kAllocation) {
      std::printf("allocated %s  port %s  session %s\n",
                  reply->Header(net::hdr::kMachine).c_str(),
                  reply->Header(net::hdr::kPort).c_str(),
                  reply->Header(net::hdr::kSessionKey).c_str());
    } else {
      std::printf("failure: %s\n", reply->Header(net::hdr::kError).c_str());
    }
  }

  server.Stop();
  std::printf("\npools created on demand: %zu\n",
              scenario.directory().PoolNames().size());
  return 0;
}
