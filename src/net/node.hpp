// Actor-style node abstraction. Every pipeline stage (query manager,
// pool manager, resource pool, reintegrator, proxy server, client) is a
// Node bound to an Address on some Network. The component code runs on
// the discrete-event simulator, in every scenario and behind the TCP
// frontend alike — this is how the paper's "stages can be independently
// distributed and replicated" is expressed in code.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/status.hpp"
#include "net/message.hpp"

namespace actyp::net {

using Address = std::string;

struct Envelope {
  Address from;
  Address to;
  Message message;
  SimTime sent_at = 0;
};

// Handle for a self-scheduled timer; 0 is never issued.
using TimerId = std::uint64_t;

// Execution context handed to a node while it processes one message.
class NodeContext {
 public:
  virtual ~NodeContext() = default;

  [[nodiscard]] virtual SimTime Now() const = 0;

  // Asynchronously sends a message; delivery incurs transport latency.
  virtual void Send(const Address& to, Message message) = 0;

  // Declares service time consumed by the current processing step: it
  // occupies the node (and a host core) for `duration`.
  virtual void Consume(SimDuration duration) = 0;

  // Service time accumulated by Consume() calls so far in the current
  // processing step. Now() does not advance while a handler runs, so
  // Now() + Consumed() is the sim time at which this step completes —
  // the profiler's span-exit stamp.
  [[nodiscard]] virtual SimDuration Consumed() const = 0;

  // Delivers `message` back to this node after `delay` (timer). Returns
  // a handle for CancelSelf.
  virtual TimerId ScheduleSelf(SimDuration delay, Message message) = 0;

  // Cancels a timer from a previous ScheduleSelf on this node before it
  // delivers. Returns false for stale/unknown ids; a cancelled timer
  // never delivers its message.
  virtual bool CancelSelf(TimerId id) = 0;

  // Per-node deterministic random stream.
  virtual Rng& rng() = 0;

  // Address this node is registered under.
  [[nodiscard]] virtual const Address& self() const = 0;
};

class Node {
 public:
  virtual ~Node() = default;

  // Invoked once when the node is registered and the network starts it.
  virtual void OnStart(NodeContext& /*ctx*/) {}

  virtual void OnMessage(const Envelope& envelope, NodeContext& ctx) = 0;
};

// Placement of a node in the simulated deployment.
struct NodePlacement {
  std::string host = "localhost";  // host name, for latency & core limits
  int servers = 1;  // how many messages the node processes concurrently
};

class Network {
 public:
  virtual ~Network() = default;

  // Registers and starts a node. The network owns the node.
  virtual Status AddNode(const Address& address, std::shared_ptr<Node> node,
                         const NodePlacement& placement) = 0;
  virtual Status RemoveNode(const Address& address) = 0;
  [[nodiscard]] virtual bool HasNode(const Address& address) const = 0;

  // Injects a message from an external source (e.g. a test driver).
  virtual void Post(const Address& from, const Address& to,
                    Message message) = 0;
};

}  // namespace actyp::net
