#include "simnet/call_gateway.hpp"

#include <cassert>
#include <optional>
#include <string>

namespace actyp::simnet {
namespace {

net::Message Failure(std::string error) {
  net::Message failure{net::msg::kFailure};
  failure.SetHeader(net::hdr::kError, std::move(error));
  return failure;
}

}  // namespace

// Keeps only the reply to the call in flight: calls take turns, so a
// reply to any other request id is a straggler from a timed-out call.
class CallGateway::ReplyNode final : public net::Node {
 public:
  void OnMessage(const net::Envelope& envelope, net::NodeContext&) override {
    if (!reply && envelope.message.Header(net::hdr::kRequestId) == awaiting) {
      reply = envelope.message;
    }
  }

  std::string awaiting;  // request id of the call in flight
  std::optional<net::Message> reply;
};

CallGateway::CallGateway(SimNetwork* network)
    : network_(network), reply_node_(std::make_shared<ReplyNode>()) {
  assert(!network_->sharded() && "CallGateway steps one kernel");
  registered_ = network_->AddNode(kAddress, reply_node_,
                                  net::NodePlacement{kHost, 1});
}

net::Message CallGateway::Call(const net::Address& entry,
                               net::Message request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!registered_.ok()) return Failure(registered_.ToString());
  const std::string request_id = std::to_string(++next_request_);
  request.SetHeader(net::hdr::kRequestId, request_id);
  request.SetHeader(net::hdr::kReplyTo, kAddress);
  reply_node_->awaiting = request_id;
  reply_node_->reply.reset();
  network_->Post(kAddress, entry, std::move(request));

  SimKernel& kernel = network_->kernel();
  const SimTime deadline = kernel.Now() + kCallTimeout;
  while (!reply_node_->reply && kernel.NextEventTime() <= deadline) {
    kernel.Step();
  }
  if (!reply_node_->reply) {
    kernel.AdvanceTo(deadline);  // the caller waited the whole timeout
    return Failure("gateway timeout");
  }
  return std::move(*reply_node_->reply);
}

}  // namespace actyp::simnet
