// Threaded in-process transport: every node gets worker thread(s) and a
// mailbox; sends traverse a delivery scheduler that injects configurable
// network latency. This is the "real concurrency" runtime used by
// integration tests and the TCP demo; the figure benchmarks use the
// deterministic discrete-event runtime in simnet/.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/mpsc_queue.hpp"
#include "net/node.hpp"

namespace actyp::net {

struct InProcConfig {
  // Latency applied to a message from -> to; defaults to zero.
  std::function<SimDuration(const Address& from, const Address& to)> latency;
  // Real-time scale applied to Consume() and latency sleeps: a value of
  // 0.01 runs a 100ms simulated service in 1ms of wall time.
  double time_scale = 1.0;
  std::uint64_t seed = 42;
};

class InProcNetwork final : public Network {
 public:
  explicit InProcNetwork(InProcConfig config = {});
  ~InProcNetwork() override;

  InProcNetwork(const InProcNetwork&) = delete;
  InProcNetwork& operator=(const InProcNetwork&) = delete;

  Status AddNode(const Address& address, std::shared_ptr<Node> node,
                 const NodePlacement& placement) override;
  Status RemoveNode(const Address& address) override;
  [[nodiscard]] bool HasNode(const Address& address) const override;

  void Post(const Address& from, const Address& to, Message message) override;

  // Stops all nodes and the delivery scheduler (also done by ~).
  void Shutdown();

  [[nodiscard]] const Clock& clock() const { return clock_; }

 private:
  struct NodeRuntime;
  class Context;

  void Deliver(Envelope envelope, SimDuration delay);
  void SchedulerLoop();

  InProcConfig config_;
  WallClock clock_;
  Rng seeder_;

  mutable std::mutex nodes_mu_;
  std::map<Address, std::shared_ptr<NodeRuntime>> nodes_;

  struct Timed {
    SimTime due;
    std::uint64_t seq;
    Envelope envelope;
    bool operator>(const Timed& other) const {
      return due != other.due ? due > other.due : seq > other.seq;
    }
  };
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::priority_queue<Timed, std::vector<Timed>, std::greater<>> timers_;
  std::uint64_t timer_seq_ = 0;
  bool stopping_ = false;  // guarded by timer_mu_
  std::thread scheduler_;
};

}  // namespace actyp::net
