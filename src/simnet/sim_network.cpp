#include "simnet/sim_network.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"
#include "common/shard_stream.hpp"
#include "obs/flight_recorder.hpp"

namespace actyp::simnet {

// Collects the effects of one handler invocation; they are applied when
// the declared service time elapses. The context itself lives on the
// stack of the dispatching frame — the buffered effects are moved into
// the completion event, so no per-dispatch heap allocation is needed
// for the context.
struct SimNetwork::Effects {
  SimDuration consumed = 0;
  std::vector<std::pair<net::Address, net::Message>> sends;
  struct SelfTimer {
    SimDuration delay;
    net::TimerId id;
    net::Message message;
  };
  std::vector<SelfTimer> self_schedules;
};

class SimNetwork::Context final : public net::NodeContext {
 public:
  Context(SimNetwork* network, NodeRuntime* runtime)
      : runtime_(runtime), shard_(&network->shards_[runtime->host->shard]) {}

  [[nodiscard]] SimTime Now() const override { return shard_->kernel->Now(); }

  void Send(const net::Address& to, net::Message message) override {
    effects_.sends.push_back({to, std::move(message)});
  }

  void Consume(SimDuration duration) override {
    if (duration > 0) effects_.consumed += duration;
  }

  [[nodiscard]] SimDuration Consumed() const override {
    return effects_.consumed;
  }

  net::TimerId ScheduleSelf(SimDuration delay, net::Message message) override {
    const net::TimerId id = shard_->next_timer_id++;
    effects_.self_schedules.push_back({delay, id, std::move(message)});
    return id;
  }

  bool CancelSelf(net::TimerId id) override {
    // Unlike sends, cancellation takes effect immediately rather than
    // at service completion: a timer whose deadline falls inside the
    // current service window must not deliver once cancelled (the
    // node.hpp contract). Timers armed by an earlier invocation are
    // removed from the kernel; one buffered in this very invocation is
    // simply dropped before it ever arms.
    auto it = runtime_->timers.find(id);
    if (it != runtime_->timers.end()) {
      shard_->kernel->Cancel(it->second);
      runtime_->timers.erase(it);
      RecordCancel(id);
      return true;
    }
    for (auto timer = effects_.self_schedules.begin();
         timer != effects_.self_schedules.end(); ++timer) {
      if (timer->id == id) {
        effects_.self_schedules.erase(timer);
        RecordCancel(id);
        return true;
      }
    }
    return false;
  }

  Rng& rng() override { return runtime_->rng; }

  [[nodiscard]] const net::Address& self() const override {
    return runtime_->address;
  }

  [[nodiscard]] SimDuration consumed() const { return effects_.consumed; }
  [[nodiscard]] Effects TakeEffects() { return std::move(effects_); }

 private:
  void RecordCancel(net::TimerId id) {
    if (shard_->recorder != nullptr) {
      shard_->recorder->Record(shard_->kernel->Now(),
                               obs::FlightKind::kTimerCancel, id,
                               runtime_->address, "");
    }
  }

  NodeRuntime* runtime_;
  Shard* shard_;
  Effects effects_;
};

SimNetwork::SimNetwork(SimKernel* kernel, Topology topology,
                       std::uint64_t seed)
    : kernel_(kernel), topology_(std::move(topology)), seeder_(seed) {
  Shard primary;
  primary.kernel = kernel_;
  primary.site = "local";
  shards_.push_back(std::move(primary));
}

SimNetwork::~SimNetwork() = default;

void SimNetwork::EnableSharding(const std::vector<std::string>& sites) {
  assert(hosts_.empty() && nodes_.empty() &&
         "EnableSharding must precede AddHost/AddNode");
  assert(!sites.empty());
  shards_.clear();
  site_shard_.clear();
  // Every shard's stream — including shard 0's — comes from the shard-
  // rank expansion of the experiment seed, never from seeder_: draws
  // depend only on (seed, rank, shard-local order), so replay is
  // identical for any worker count.
  const std::uint64_t base_seed = seeder_.Next();
  for (std::size_t rank = 0; rank < sites.size(); ++rank) {
    Shard shard;
    if (rank == 0) {
      shard.kernel = kernel_;
    } else {
      shard.owned = std::make_unique<SimKernel>();
      shard.kernel = shard.owned.get();
    }
    shard.site = sites[rank];
    shard.rng = ShardStream(base_seed, rank);
    shard.outbox.resize(sites.size());
    site_shard_[sites[rank]] = static_cast<std::uint32_t>(rank);
    shards_.push_back(std::move(shard));
  }
}

std::uint32_t SimNetwork::ShardOfSite(const std::string& site) const {
  const auto it = site_shard_.find(site);
  return it == site_shard_.end() ? 0 : it->second;
}

void SimNetwork::AddHost(const std::string& name, int cores,
                         const std::string& site) {
  auto host = std::make_unique<Host>();
  host->name = name;
  host->cores = std::max(1, cores);
  host->shard = ShardOfSite(site);
  hosts_[name] = std::move(host);
  topology_.SetHostSite(name, site);
}

SimNetwork::Host* SimNetwork::GetOrCreateHost(const std::string& name) {
  auto it = hosts_.find(name);
  if (it != hosts_.end()) return it->second.get();
  auto host = std::make_unique<Host>();
  host->name = name;
  host->cores = 1;
  host->shard = ShardOfSite(topology_.SiteOf(name));
  Host* raw = host.get();
  hosts_[name] = std::move(host);
  return raw;
}

Status SimNetwork::AddNode(const net::Address& address,
                           std::shared_ptr<net::Node> node,
                           const net::NodePlacement& placement) {
  if (nodes_.count(address)) return AlreadyExists("node '" + address + "'");
  auto runtime = std::make_shared<NodeRuntime>();
  runtime->address = address;
  runtime->node = std::move(node);
  runtime->placement = placement;
  runtime->placement.servers = std::max(1, placement.servers);
  runtime->host = GetOrCreateHost(placement.host);
  runtime->rng = seeder_.Fork();
  nodes_[address] = runtime;
  node_host_[address] = placement.host;

  // OnStart effects are immediate (registration-time setup costs are not
  // part of query response time).
  Context ctx(this, runtime.get());
  runtime->node->OnStart(ctx);
  ApplyEffects(runtime, ctx.TakeEffects());
  return Status::Ok();
}

Status SimNetwork::RemoveNode(const net::Address& address) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return NotFound("node '" + address + "'");
  it->second->removed = true;  // in-flight completions check this flag
  // A removed node's pending self-timers die with it: its periodic
  // ticks and give-up timers must not deliver to a later node reusing
  // the address (the restarted service arms its own timers in OnStart).
  SimKernel* kernel = shards_[it->second->host->shard].kernel;
  for (const auto& [id, kernel_id] : it->second->timers) {
    kernel->Cancel(kernel_id);
  }
  it->second->timers.clear();
  nodes_.erase(it);
  return Status::Ok();
}

bool SimNetwork::HasNode(const net::Address& address) const {
  return nodes_.count(address) > 0;
}

void SimNetwork::Post(const net::Address& from, const net::Address& to,
                      net::Message message) {
  const auto from_host_it = node_host_.find(from);
  const auto to_host_it = node_host_.find(to);
  const std::string from_host =
      from_host_it == node_host_.end() ? "external" : from_host_it->second;
  const std::string to_host =
      to_host_it == node_host_.end() ? to : to_host_it->second;

  // The sending shard owns every draw this Post makes. An unsharded
  // network keeps the legacy shared stream (byte-identical to the
  // serial-only engine); external senders are charged to the
  // destination's shard.
  std::uint32_t from_shard = 0;
  std::uint32_t to_shard = 0;
  if (sharded()) {
    to_shard = ShardOfSite(topology_.SiteOf(to_host));
    from_shard = from_host_it == node_host_.end()
                     ? to_shard
                     : ShardOfSite(topology_.SiteOf(from_host));
  }
  Shard& sender = shards_[from_shard];
  Rng& draw_rng = sharded() ? sender.rng : seeder_;

  if (loss_probability_ > 0.0 && from != to &&
      draw_rng.Bernoulli(loss_probability_)) {
    ++sender.lost;
    if (sender.recorder != nullptr) {
      sender.recorder->Record(sender.kernel->Now(),
                              obs::FlightKind::kMsgDropLoss, 0, from,
                              message.type + " -> " + to);
    }
    return;
  }

  if (topology_.IsPartitioned(from_host, to_host)) {
    ++sender.partition_dropped;
    if (sender.recorder != nullptr) {
      sender.recorder->Record(sender.kernel->Now(),
                              obs::FlightKind::kMsgDropPartition, 0, from,
                              message.type + " -> " + to);
    }
    return;
  }

  const SimDuration latency =
      topology_.SampleLatency(from_host, to_host, message.WireSize(), draw_rng);
  const SimTime now = sender.kernel->Now();
  if (sender.recorder != nullptr && from != to) {
    sender.recorder->Record(now, obs::FlightKind::kMsgSend, 0, from,
                            message.type + " -> " + to);
  }
  net::Envelope env{from, to, std::move(message), now};
  if (to_shard == from_shard) {
    sender.kernel->Schedule(latency, [this, env = std::move(env)]() mutable {
      Deliver(std::move(env));
    });
    return;
  }
  // Cross-shard: park in the outbox for the next inter-window merge.
  // Safety: latency >= the link's base >= this shard's lookahead, so
  // deliver_at >= this window's horizon — the destination has not
  // executed past it.
  CrossShardMessage msg;
  msg.deliver_at = now + latency;
  msg.seq = sender.out_seq++;
  msg.envelope = std::move(env);
  sender.outbox[to_shard].push_back(std::move(msg));
}

void SimNetwork::Deliver(net::Envelope envelope) {
  auto it = nodes_.find(envelope.to);
  if (it == nodes_.end()) {
    // Attribute the drop to the shard Post routed the message to — the
    // same host->site->shard resolution, so it is always the shard
    // whose kernel is executing this delivery (no cross-shard write).
    const auto host_it = node_host_.find(envelope.to);
    const std::string& to_host =
        host_it == node_host_.end() ? envelope.to : host_it->second;
    Shard& shard = shards_[ShardOfSite(topology_.SiteOf(to_host))];
    ++shard.dropped;
    if (shard.recorder != nullptr) {
      shard.recorder->Record(shard.kernel->Now(),
                             obs::FlightKind::kMsgDropDeadNode, 0,
                             envelope.to, envelope.message.type);
    }
    ACTYP_DEBUG << "sim: dropping message type '" << envelope.message.type
                << "' to unknown node '" << envelope.to << "'";
    return;
  }
  auto runtime = it->second;
  Shard& shard = shards_[runtime->host->shard];
  if (shard.recorder != nullptr && envelope.from != envelope.to) {
    shard.recorder->Record(shard.kernel->Now(), obs::FlightKind::kMsgRecv,
                           0, envelope.to, envelope.message.type);
  }
  runtime->pending.push_back(std::move(envelope));
  runtime->stats.max_queue =
      std::max<std::uint64_t>(runtime->stats.max_queue,
                              runtime->pending.size());
  TryDispatch(runtime);
}

void SimNetwork::TryDispatch(const std::shared_ptr<NodeRuntime>& runtime) {
  // A node stalled only by the host core limit parks itself on the
  // host's wait queue; WakeHost hands freed cores to parked nodes in
  // blocking order instead of polling every node on the host.
  const auto park_if_core_starved = [this, &runtime] {
    if (!runtime->removed && !runtime->in_wait_queue &&
        !runtime->pending.empty() &&
        runtime->busy < runtime->placement.servers &&
        runtime->host->busy >= runtime->host->cores) {
      runtime->in_wait_queue = true;
      runtime->host->waiting.push_back(runtime);
    }
  };
  SimKernel* kernel = shards_[runtime->host->shard].kernel;
  while (!runtime->removed && !runtime->pending.empty() &&
         runtime->busy < runtime->placement.servers &&
         runtime->host->busy < runtime->host->cores) {
    net::Envelope envelope = std::move(runtime->pending.front());
    runtime->pending.pop_front();
    ++runtime->busy;
    ++runtime->host->busy;
    ++runtime->stats.messages;

    // Run the handler logic now (state transitions happen at start of
    // service); effects release at completion.
    Context ctx(this, runtime.get());
    runtime->node->OnMessage(envelope, ctx);
    const SimDuration service = ctx.consumed();
    runtime->stats.busy_time += service;

    Host* host = runtime->host;
    kernel->Schedule(
        service, [this, runtime, host, effects = ctx.TakeEffects()]() mutable {
          --runtime->busy;
          --host->busy;
          ApplyEffects(runtime, std::move(effects));
          TryDispatch(runtime);
          WakeHost(host);
        });
  }
  park_if_core_starved();
}

void SimNetwork::ApplyEffects(const std::shared_ptr<NodeRuntime>& runtime,
                              Effects effects) {
  for (auto& [to, message] : effects.sends) {
    Post(runtime->address, to, std::move(message));
  }
  Shard& shard = shards_[runtime->host->shard];
  SimKernel* kernel = shard.kernel;
  for (auto& timer : effects.self_schedules) {
    if (runtime->removed) break;  // a dead node arms no new timers
    net::Envelope env{runtime->address, runtime->address,
                      std::move(timer.message), kernel->Now()};
    if (shard.recorder != nullptr) {
      shard.recorder->Record(kernel->Now(), obs::FlightKind::kTimerArm,
                             timer.id, runtime->address, env.message.type);
    }
    const SimKernel::TimerId kernel_id = kernel->Schedule(
        timer.delay,
        [this, runtime, id = timer.id, env = std::move(env)]() mutable {
          runtime->timers.erase(id);
          Shard& home = shards_[runtime->host->shard];
          if (home.recorder != nullptr) {
            home.recorder->Record(home.kernel->Now(),
                                  obs::FlightKind::kTimerFire, id,
                                  runtime->address, env.message.type);
          }
          Deliver(std::move(env));
        });
    runtime->timers.emplace(timer.id, kernel_id);
  }
}

void SimNetwork::WakeHost(Host* host) {
  // Hand freed cores to nodes that parked on the core limit, oldest
  // blocked first; TryDispatch re-parks a node that is still starved.
  while (host->busy < host->cores && !host->waiting.empty()) {
    std::shared_ptr<NodeRuntime> runtime = std::move(host->waiting.front());
    host->waiting.pop_front();
    runtime->in_wait_queue = false;
    if (runtime->removed) continue;
    TryDispatch(runtime);
  }
}

void SimNetwork::DrainMailboxes() {
  const std::size_t n = shards_.size();
  for (std::size_t dest = 0; dest < n; ++dest) {
    merge_scratch_.clear();
    for (std::size_t src = 0; src < n; ++src) {
      auto& box = shards_[src].outbox[dest];
      std::move(box.begin(), box.end(), std::back_inserter(merge_scratch_));
      box.clear();
    }
    if (merge_scratch_.empty()) continue;
    // Sources were concatenated in rank order and each source's list is
    // already in its local seq order, so a stable sort on deliver_at
    // yields the (deliver_at, source rank, source seq) total order —
    // the destination kernel then assigns its insertion-order tie-break
    // seqs in exactly that order, independent of worker count.
    std::stable_sort(
        merge_scratch_.begin(), merge_scratch_.end(),
        [](const CrossShardMessage& a, const CrossShardMessage& b) {
          return a.deliver_at < b.deliver_at;
        });
    SimKernel* kernel = shards_[dest].kernel;
    for (CrossShardMessage& msg : merge_scratch_) {
      kernel->ScheduleAt(msg.deliver_at,
                         [this, env = std::move(msg.envelope)]() mutable {
                           Deliver(std::move(env));
                         });
    }
    merge_scratch_.clear();
  }
}

void SimNetwork::RefreshLookahead() {
  for (Shard& shard : shards_) {
    SimDuration lookahead = SimKernel::kNoEvent;
    for (const Shard& other : shards_) {
      if (&other == &shard) continue;
      lookahead = std::min(lookahead,
                           topology_.MinSiteLatency(shard.site, other.site));
    }
    shard.lookahead = std::max<SimDuration>(lookahead, Micros(1));
  }
}

std::size_t SimNetwork::RunShardedUntil(SimTime until, ThreadPool* pool) {
  if (!sharded()) return kernel_->RunUntil(until);
  RefreshLookahead();
  std::size_t executed = 0;
  for (;;) {
    DrainMailboxes();
    // Safe horizon: no shard can emit a cross-shard message landing
    // before (its next event time + its lookahead), so every event
    // strictly below W is already fully determined.
    SimTime min_floor = SimKernel::kNoEvent;
    SimTime horizon = SimKernel::kNoEvent;
    for (const Shard& shard : shards_) {
      const SimTime floor = shard.kernel->NextEventTime();
      min_floor = std::min(min_floor, floor);
      if (floor != SimKernel::kNoEvent) {
        horizon = std::min(horizon, floor + shard.lookahead);
      }
    }
    if (min_floor > until) break;  // nothing left inside this run
    const SimTime bound = std::min(horizon, until + 1);
    if (pool != nullptr) {
      // One task per shard; Drain is the window barrier. Shards touch
      // only their own kernel/RNG/counters and their own nodes' state
      // during the window, and the outboxes are merged after the
      // barrier, so the window is data-race-free.
      std::vector<std::size_t> ran(shards_.size(), 0);
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        pool->Submit([this, i, bound, &ran] {
          ran[i] = shards_[i].kernel->RunBefore(bound);
        });
      }
      pool->Drain();
      for (const std::size_t n : ran) executed += n;
    } else {
      for (Shard& shard : shards_) {
        executed += shard.kernel->RunBefore(bound);
      }
    }
  }
  for (Shard& shard : shards_) shard.kernel->AdvanceTo(until);
  // The outboxes are empty here: the exit test runs right after a
  // drain, so everything beyond `until` already sits in its destination
  // kernel as a future event for the next call (Measure runs warmup and
  // measurement as two consecutive calls).
  return executed;
}

std::uint64_t SimNetwork::total_executed() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.kernel->executed();
  return total;
}

std::uint64_t SimNetwork::dropped_messages() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.dropped;
  return total;
}

std::uint64_t SimNetwork::lost_messages() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.lost;
  return total;
}

std::uint64_t SimNetwork::partition_dropped() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.partition_dropped;
  return total;
}

NodeStats SimNetwork::StatsFor(const net::Address& address) const {
  auto it = nodes_.find(address);
  return it == nodes_.end() ? NodeStats{} : it->second->stats;
}

void SimNetwork::SetFlightRecorder(std::size_t shard,
                                   obs::FlightRecorder* recorder) {
  if (shard < shards_.size()) shards_[shard].recorder = recorder;
}

std::uint64_t SimNetwork::pending_events() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.kernel->pending();
  return total;
}

std::uint64_t SimNetwork::queued_messages() const {
  std::uint64_t total = 0;
  for (const auto& [address, runtime] : nodes_) {
    total += runtime->pending.size();
  }
  return total;
}

std::uint64_t SimNetwork::busy_cores() const {
  std::uint64_t total = 0;
  for (const auto& [name, host] : hosts_) {
    total += static_cast<std::uint64_t>(host->busy);
  }
  return total;
}

}  // namespace actyp::simnet
