// CallGateway: the synchronous edge into a simulated deployment. A
// thread outside the simulation (a TCP connection, a test) hands it a
// request for an entry node; the gateway stamps the request id and
// reply-to, posts the request from its reply node, and steps the kernel
// on the calling thread until the reply arrives or kCallTimeout of
// simulated time passes. Calls take turns under one mutex, so the
// simulation stays single-threaded however many threads call.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "common/status.hpp"
#include "simnet/sim_network.hpp"

namespace actyp::simnet {

class CallGateway {
 public:
  // Simulated time a call waits for its reply.
  static constexpr SimDuration kCallTimeout = Seconds(5.0);
  // Deployment names: the reply node's address and the host it runs on.
  static constexpr const char* kAddress = "gateway";
  static constexpr const char* kHost = "edge";

  // Registers the reply node on `network`, which must be unsharded and
  // must outlive the gateway.
  explicit CallGateway(SimNetwork* network);

  CallGateway(const CallGateway&) = delete;
  CallGateway& operator=(const CallGateway&) = delete;

  // Sends `request` to `entry` and returns the reply, or a failure
  // message: "gateway timeout" when no reply comes within kCallTimeout,
  // or the AddNode error when the reply node could not be registered.
  net::Message Call(const net::Address& entry, net::Message request);

 private:
  class ReplyNode;

  SimNetwork* network_;
  std::shared_ptr<ReplyNode> reply_node_;
  Status registered_;
  std::mutex mu_;  // one call in flight: guards the network and the node
  std::uint64_t next_request_ = 0;
};

}  // namespace actyp::simnet
