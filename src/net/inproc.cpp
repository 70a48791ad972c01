#include "net/inproc.hpp"

#include <chrono>

#include "common/logging.hpp"

namespace actyp::net {

struct InProcNetwork::NodeRuntime {
  Address address;
  std::shared_ptr<Node> node;
  BlockingQueue<Envelope> mailbox;
  std::vector<std::thread> workers;
  Rng rng;

  NodeRuntime(Address addr, std::shared_ptr<Node> n, Rng r)
      : address(std::move(addr)), node(std::move(n)), rng(r) {}
};

class InProcNetwork::Context final : public NodeContext {
 public:
  Context(InProcNetwork* network, NodeRuntime* runtime)
      : network_(network), runtime_(runtime) {}

  [[nodiscard]] SimTime Now() const override {
    return network_->clock_.Now();
  }

  void Send(const Address& to, Message message) override {
    network_->Post(runtime_->address, to, std::move(message));
  }

  void Consume(SimDuration duration) override {
    const auto real = static_cast<std::int64_t>(
        static_cast<double>(duration) * network_->config_.time_scale);
    if (real > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(real));
    }
  }

  TimerId ScheduleSelf(SimDuration delay, Message message) override {
    Envelope env{runtime_->address, runtime_->address, std::move(message),
                 Now()};
    network_->Deliver(std::move(env), delay);
    return 0;  // the threaded transport does not support cancellation
  }

  Rng& rng() override { return runtime_->rng; }

  [[nodiscard]] const Address& self() const override {
    return runtime_->address;
  }

 private:
  InProcNetwork* network_;
  NodeRuntime* runtime_;
};

InProcNetwork::InProcNetwork(InProcConfig config)
    : config_(std::move(config)), seeder_(config_.seed) {
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

InProcNetwork::~InProcNetwork() { Shutdown(); }

Status InProcNetwork::AddNode(const Address& address,
                              std::shared_ptr<Node> node,
                              const NodePlacement& placement) {
  std::shared_ptr<NodeRuntime> runtime;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    if (nodes_.count(address)) {
      return AlreadyExists("node '" + address + "'");
    }
    runtime =
        std::make_shared<NodeRuntime>(address, std::move(node), seeder_.Fork());
    nodes_[address] = runtime;
  }

  {
    Context ctx(this, runtime.get());
    runtime->node->OnStart(ctx);
  }

  const int servers = std::max(1, placement.servers);
  for (int i = 0; i < servers; ++i) {
    runtime->workers.emplace_back([this, runtime] {
      Context ctx(this, runtime.get());
      while (auto envelope = runtime->mailbox.Pop()) {
        runtime->node->OnMessage(*envelope, ctx);
      }
    });
  }
  return Status::Ok();
}

Status InProcNetwork::RemoveNode(const Address& address) {
  std::shared_ptr<NodeRuntime> runtime;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    auto it = nodes_.find(address);
    if (it == nodes_.end()) return NotFound("node '" + address + "'");
    runtime = it->second;
    nodes_.erase(it);
  }
  runtime->mailbox.Close();
  for (auto& worker : runtime->workers) worker.join();
  return Status::Ok();
}

bool InProcNetwork::HasNode(const Address& address) const {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  return nodes_.count(address) > 0;
}

void InProcNetwork::Post(const Address& from, const Address& to,
                         Message message) {
  Envelope env{from, to, std::move(message), clock_.Now()};
  const SimDuration latency =
      config_.latency ? config_.latency(from, to) : 0;
  Deliver(std::move(env), latency);
}

void InProcNetwork::Deliver(Envelope envelope, SimDuration delay) {
  const auto real_delay = static_cast<SimDuration>(
      static_cast<double>(delay) * config_.time_scale);
  if (real_delay <= 0) {
    std::shared_ptr<NodeRuntime> runtime;
    {
      std::lock_guard<std::mutex> lock(nodes_mu_);
      auto it = nodes_.find(envelope.to);
      if (it == nodes_.end()) {
        ACTYP_DEBUG << "dropping message to unknown node '" << envelope.to
                    << "'";
        return;
      }
      runtime = it->second;
    }
    runtime->mailbox.Push(std::move(envelope));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timers_.push(
        Timed{clock_.Now() + real_delay, timer_seq_++, std::move(envelope)});
  }
  timer_cv_.notify_one();
}

void InProcNetwork::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!stopping_) {
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const SimTime due = timers_.top().due;
    const SimTime now = clock_.Now();
    if (now < due) {
      timer_cv_.wait_for(lock, std::chrono::microseconds(due - now));
      continue;
    }
    Envelope envelope = timers_.top().envelope;
    timers_.pop();
    lock.unlock();
    Deliver(std::move(envelope), 0);
    lock.lock();
  }
}

void InProcNetwork::Shutdown() {
  {
    // Set under timer_mu_: the scheduler tests stopping_ and parks on
    // timer_cv_ under that lock, so this notify cannot land between its
    // test and its wait (which would park it forever and hang the join).
    std::lock_guard<std::mutex> lock(timer_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  timer_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();

  std::map<Address, std::shared_ptr<NodeRuntime>> nodes;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    nodes.swap(nodes_);
  }
  for (auto& [address, runtime] : nodes) {
    runtime->mailbox.Close();
    for (auto& worker : runtime->workers) worker.join();
  }
}

}  // namespace actyp::net
