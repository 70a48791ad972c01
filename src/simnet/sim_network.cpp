#include "simnet/sim_network.hpp"

#include <cassert>
#include <tuple>

#include "common/logging.hpp"
#include "common/shard_stream.hpp"
#include "obs/flight_recorder.hpp"

namespace actyp::simnet {
namespace {

// The host a sender outside every node routes from.
const std::string& ExternalHost() {
  static const std::string kExternal = "external";
  return kExternal;
}

}  // namespace

// Buffers one handler invocation's effects in its shard's effects slot;
// they are applied when the declared service time elapses. The context
// itself lives on the stack of the dispatching frame.
class SimNetwork::Context final : public net::NodeContext {
 public:
  Context(NodeRuntime* runtime, Shard* shard, Effects* effects)
      : runtime_(runtime), shard_(shard), effects_(effects) {}

  [[nodiscard]] SimTime Now() const override { return shard_->kernel->Now(); }

  void Send(const net::Address& to, net::Message message) override {
    Effects::Send& send = effects_->sends.Append();
    send.to = to;
    send.message = std::move(message);
  }

  void Consume(SimDuration duration) override {
    if (duration > 0) effects_->consumed += duration;
  }

  [[nodiscard]] SimDuration Consumed() const override {
    return effects_->consumed;
  }

  net::TimerId ScheduleSelf(SimDuration delay, net::Message message) override {
    const net::TimerId id = shard_->next_timer_id++;
    effects_->timers.push_back({delay, id, std::move(message)});
    return id;
  }

  bool CancelSelf(net::TimerId id) override {
    // Unlike sends, cancellation takes effect immediately rather than
    // at service completion: a timer whose deadline falls inside the
    // current service window must not deliver once cancelled (the
    // node.hpp contract). Timers armed by an earlier invocation are
    // removed from the kernel; one buffered in this very invocation is
    // simply dropped before it ever arms.
    std::vector<ArmedTimer>& armed = runtime_->timers;
    for (auto timer = armed.begin(); timer != armed.end(); ++timer) {
      if (timer->id == id) {
        shard_->kernel->Cancel(timer->kernel_id);
        shard_->parcels.Release(timer->slot);
        armed.erase(timer);
        RecordCancel(id);
        return true;
      }
    }
    std::vector<Effects::SelfTimer>& buffered = effects_->timers;
    for (auto timer = buffered.begin(); timer != buffered.end(); ++timer) {
      if (timer->id == id) {
        buffered.erase(timer);
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
  Effects* effects_;
};

SimNetwork::SimNetwork(SimKernel* kernel, Topology topology,
                       std::uint64_t seed)
    : kernel_(kernel), topology_(std::move(topology)), seeder_(seed) {
  Shard primary;
  primary.kernel = kernel_;
  primary.site = "local";
  shards_.push_back(std::move(primary));
}

SimNetwork::~SimNetwork() { StopCrew(); }

void SimNetwork::EnableSharding(const std::vector<std::string>& sites) {
  assert(hosts_.empty() && routes_.empty() &&
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
    for (std::vector<Outbox>& boxes : shard.outbox) boxes.resize(sites.size());
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
  topology_.SetHostSite(name, site);
  auto host = std::make_unique<Host>();
  host->name = name;
  host->site = &topology_.BindSite(name);
  host->cores = std::max(1, cores);
  host->shard = ShardOfSite(site);
  hosts_[name] = std::move(host);
}

SimNetwork::Host* SimNetwork::GetOrCreateHost(const std::string& name) {
  auto it = hosts_.find(name);
  if (it != hosts_.end()) return it->second.get();
  auto host = std::make_unique<Host>();
  host->name = name;
  host->site = &topology_.BindSite(name);
  host->cores = 1;
  host->shard = ShardOfSite(*host->site);
  Host* raw = host.get();
  hosts_[name] = std::move(host);
  return raw;
}

Status SimNetwork::AddNode(const net::Address& address,
                           std::shared_ptr<net::Node> node,
                           const net::NodePlacement& placement) {
  Route& route = routes_[address];
  if (route.runtime != nullptr) {
    return AlreadyExists("node '" + address + "'");
  }
  auto runtime = std::make_unique<NodeRuntime>();
  runtime->address = address;
  runtime->node = std::move(node);
  runtime->placement = placement;
  runtime->placement.servers = std::max(1, placement.servers);
  runtime->host = GetOrCreateHost(placement.host);
  runtime->rng = seeder_.Fork();
  route.host = runtime->host;
  route.runtime = std::move(runtime);
  NodeRuntime* started = route.runtime.get();

  // OnStart effects are immediate (registration-time setup costs are not
  // part of query response time).
  Shard& shard = shards_[started->host->shard];
  const std::uint32_t slot = shard.effects.Acquire();
  Effects& effects = shard.effects.slots[slot];
  effects.runtime = started;
  effects.consumed = 0;
  Context ctx(started, &shard, &effects);
  started->node->OnStart(ctx);
  ApplyEffects(started, effects);
  shard.effects.Release(slot);
  return Status::Ok();
}

Status SimNetwork::RemoveNode(const net::Address& address) {
  const auto it = routes_.find(address);
  if (it == routes_.end() || it->second.runtime == nullptr) {
    return NotFound("node '" + address + "'");
  }
  std::unique_ptr<NodeRuntime> runtime = std::move(it->second.runtime);
  runtime->removed = true;  // in-flight completions check this flag
  Shard& shard = shards_[runtime->host->shard];
  // A removed node's pending self-timers die with it: its periodic
  // ticks and give-up timers must not deliver to a later node reusing
  // the address (the restarted service arms its own timers in OnStart).
  for (const ArmedTimer& timer : runtime->timers) {
    shard.kernel->Cancel(timer.kernel_id);
    shard.parcels.Release(timer.slot);
  }
  runtime->timers.clear();
  // Messages already queued at the node are dropped with it; messages
  // still in flight reach whichever node holds the address when they
  // land. A removed node never dispatches again, so it also leaves its
  // host's core-wait queue.
  while (!runtime->pending.empty()) {
    shard.parcels.Release(runtime->pending.front());
    runtime->pending.pop_front();
  }
  if (runtime->in_wait_queue) {
    runtime->host->waiting.Remove(runtime.get());
    runtime->in_wait_queue = false;
  }
  // Handlers still in service keep the runtime until they complete.
  if (runtime->busy > 0) removed_.push_back(std::move(runtime));
  return Status::Ok();
}

void SimNetwork::FreeRemoved(NodeRuntime* runtime) {
  for (auto& held : removed_) {
    if (held.get() == runtime) {
      held = std::move(removed_.back());
      removed_.pop_back();
      return;
    }
  }
}

bool SimNetwork::HasNode(const net::Address& address) const {
  const auto it = routes_.find(address);
  return it != routes_.end() && it->second.runtime != nullptr;
}

void SimNetwork::Post(const net::Address& from, const net::Address& to,
                      net::Message message) {
  const auto it = routes_.find(from);
  Transmit(from, it == routes_.end() ? nullptr : it->second.host, to,
           std::move(message));
}

void SimNetwork::Transmit(const net::Address& from, const Host* from_host,
                          const net::Address& to, net::Message&& message) {
  // The one string-keyed lookup of a send. An address no node has
  // registered yet routes as a host of that name.
  const auto it = routes_.find(to);
  Route* route = it == routes_.end() ? nullptr : &it->second;
  const Host* to_host = route == nullptr ? nullptr : route->host;
  const std::string& to_name = to_host == nullptr ? to : to_host->name;
  const std::string& to_site =
      to_host == nullptr ? topology_.SiteOf(to) : *to_host->site;
  const std::string& from_name =
      from_host == nullptr ? ExternalHost() : from_host->name;
  const std::string& from_site = from_host == nullptr
                                     ? topology_.SiteOf(ExternalHost())
                                     : *from_host->site;

  // The sending shard owns every draw this send makes. An unsharded
  // network keeps the legacy shared stream (byte-identical to the
  // serial-only engine); external senders are charged to the
  // destination's shard.
  const std::uint32_t to_shard =
      to_host == nullptr ? ShardOfSite(to_site) : to_host->shard;
  const std::uint32_t from_shard =
      from_host == nullptr ? to_shard : from_host->shard;
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

  const bool same_host = from_name == to_name;
  if (!same_host && topology_.IsSitePartitioned(from_site, to_site)) {
    ++sender.partition_dropped;
    if (sender.recorder != nullptr) {
      sender.recorder->Record(sender.kernel->Now(),
                              obs::FlightKind::kMsgDropPartition, 0, from,
                              message.type + " -> " + to);
    }
    return;
  }

  const SimDuration latency = topology_.SampleSiteLatency(
      same_host, from_site, to_site, message.WireSize(), draw_rng);
  const SimTime now = sender.kernel->Now();
  if (sender.recorder != nullptr && from != to) {
    sender.recorder->Record(now, obs::FlightKind::kMsgSend, 0, from,
                            message.type + " -> " + to);
  }
  if (to_shard == from_shard) {
    const std::uint32_t slot =
        Park(sender, from, to, std::move(message), now, route, nullptr);
    sender.kernel->Schedule(
        latency, [this, to_shard, slot] { Deliver(to_shard, slot); });
    return;
  }
  // Cross-shard: park in the outbox the destination drains at the
  // start of its next window. Safety: latency >= the link's base >= this
  // shard's lookahead, so deliver_at >= this window's horizon — the
  // destination has not executed past it.
  Outbox& box = sender.outbox[parity_][to_shard];
  CrossShardMessage& msg = box.messages.Append();
  msg.deliver_at = now + latency;
  box.earliest = std::min(box.earliest, msg.deliver_at);
  msg.seq = sender.out_seq++;
  msg.envelope.from = from;
  msg.envelope.to = to;
  msg.envelope.message = std::move(message);
  msg.envelope.sent_at = now;
  msg.route = route;
}

std::uint32_t SimNetwork::Park(Shard& shard, const net::Address& from,
                               const net::Address& to,
                               net::Message&& message, SimTime sent_at,
                               Route* route, NodeRuntime* owner) {
  const std::uint32_t slot = shard.parcels.Acquire();
  Parcel& parcel = shard.parcels.slots[slot];
  // Assigned, not constructed: the slot's address strings keep their
  // capacity from the envelope it last held.
  parcel.envelope.from = from;
  parcel.envelope.to = to;
  parcel.envelope.message = std::move(message);
  parcel.envelope.sent_at = sent_at;
  parcel.route = route;
  parcel.owner = owner;
  return slot;
}

void SimNetwork::Deliver(std::uint32_t shard_index, std::uint32_t slot) {
  Shard& shard = shards_[shard_index];
  const Parcel& parcel = shard.parcels.slots[slot];
  const net::Envelope& envelope = parcel.envelope;
  Route* route = parcel.route;
  if (route == nullptr) {
    const auto it = routes_.find(envelope.to);
    if (it != routes_.end()) route = &it->second;
  }
  NodeRuntime* runtime = route == nullptr ? nullptr : route->runtime.get();
  if (runtime == nullptr) {
    // Counted on the shard the send routed the message to: the one
    // executing this delivery (no cross-shard write).
    ++shard.dropped;
    if (shard.recorder != nullptr) {
      shard.recorder->Record(shard.kernel->Now(),
                             obs::FlightKind::kMsgDropDeadNode, 0,
                             envelope.to, envelope.message.type);
    }
    ACTYP_DEBUG << "sim: dropping message type '" << envelope.message.type
                << "' to unknown node '" << envelope.to << "'";
    shard.parcels.Release(slot);
    return;
  }
  // Every deployment re-adds an address on the host it left, so the
  // node a send finds lives on the shard the send routed to.
  assert(runtime->host->shard == shard_index);
  if (shard.recorder != nullptr && envelope.from != envelope.to) {
    shard.recorder->Record(shard.kernel->Now(), obs::FlightKind::kMsgRecv,
                           0, envelope.to, envelope.message.type);
  }
  Enqueue(runtime, slot);
}

void SimNetwork::FireTimer(std::uint32_t shard_index, std::uint32_t slot) {
  Shard& shard = shards_[shard_index];
  const Parcel& parcel = shard.parcels.slots[slot];
  // A timer's node is live: RemoveNode cancels every armed timer.
  NodeRuntime* runtime = parcel.owner;
  std::vector<ArmedTimer>& armed = runtime->timers;
  const auto timer = std::find_if(
      armed.begin(), armed.end(),
      [slot](const ArmedTimer& t) { return t.slot == slot; });
  assert(timer != armed.end());
  if (shard.recorder != nullptr) {
    shard.recorder->Record(shard.kernel->Now(), obs::FlightKind::kTimerFire,
                           timer->id, runtime->address,
                           parcel.envelope.message.type);
  }
  armed.erase(timer);
  Enqueue(runtime, slot);
}

void SimNetwork::Enqueue(NodeRuntime* runtime, std::uint32_t slot) {
  runtime->pending.push_back(slot);
  runtime->stats.max_queue = std::max<std::uint64_t>(
      runtime->stats.max_queue, runtime->pending.size());
  TryDispatch(runtime);
}

void SimNetwork::TryDispatch(NodeRuntime* runtime) {
  Host* host = runtime->host;
  const std::uint32_t shard_index = host->shard;
  Shard& shard = shards_[shard_index];
  while (!runtime->removed && !runtime->pending.empty() &&
         runtime->busy < runtime->placement.servers &&
         host->busy < host->cores) {
    const std::uint32_t parcel = runtime->pending.front();
    runtime->pending.pop_front();
    ++runtime->busy;
    ++host->busy;
    ++runtime->stats.messages;

    // Run the handler logic now (state transitions happen at start of
    // service); effects release at completion.
    const std::uint32_t slot = shard.effects.Acquire();
    Effects& effects = shard.effects.slots[slot];
    effects.runtime = runtime;
    effects.consumed = 0;
    Context ctx(runtime, &shard, &effects);
    runtime->node->OnMessage(shard.parcels.slots[parcel].envelope, ctx);
    shard.parcels.Release(parcel);
    runtime->stats.busy_time += effects.consumed;
    shard.kernel->Schedule(effects.consumed, [this, shard_index, slot] {
      Complete(shard_index, slot);
    });
  }
  // A node stalled only by the host core limit parks itself on the
  // host's wait queue; WakeHost hands freed cores to parked nodes in
  // blocking order instead of polling every node on the host.
  if (!runtime->removed && !runtime->in_wait_queue &&
      !runtime->pending.empty() &&
      runtime->busy < runtime->placement.servers &&
      host->busy >= host->cores) {
    runtime->in_wait_queue = true;
    host->waiting.push_back(runtime);
  }
}

void SimNetwork::Complete(std::uint32_t shard_index, std::uint32_t slot) {
  Shard& shard = shards_[shard_index];
  Effects& effects = shard.effects.slots[slot];
  NodeRuntime* runtime = effects.runtime;
  Host* host = runtime->host;
  --runtime->busy;
  --host->busy;
  ApplyEffects(runtime, effects);
  shard.effects.Release(slot);
  if (!runtime->removed) {
    TryDispatch(runtime);
  } else if (runtime->busy == 0) {
    FreeRemoved(runtime);
  }
  WakeHost(host);
}

void SimNetwork::ApplyEffects(NodeRuntime* runtime, Effects& effects) {
  for (std::size_t i = 0; i < effects.sends.size; ++i) {
    Effects::Send& send = effects.sends.entries[i];
    Transmit(runtime->address, runtime->host, send.to,
             std::move(send.message));
  }
  effects.sends.size = 0;
  const std::uint32_t shard_index = runtime->host->shard;
  Shard& shard = shards_[shard_index];
  SimKernel* kernel = shard.kernel;
  for (Effects::SelfTimer& timer : effects.timers) {
    if (runtime->removed) break;  // a dead node arms no new timers
    const std::uint32_t slot =
        Park(shard, runtime->address, runtime->address,
             std::move(timer.message), kernel->Now(), nullptr, runtime);
    if (shard.recorder != nullptr) {
      shard.recorder->Record(kernel->Now(), obs::FlightKind::kTimerArm,
                             timer.id, runtime->address,
                             shard.parcels.slots[slot].envelope.message.type);
    }
    const SimKernel::TimerId kernel_id =
        kernel->Schedule(timer.delay, [this, shard_index, slot] {
          FireTimer(shard_index, slot);
        });
    runtime->timers.push_back({timer.id, kernel_id, slot});
  }
  effects.timers.clear();
}

void SimNetwork::WakeHost(Host* host) {
  // Hand freed cores to nodes that parked on the core limit, oldest
  // blocked first; TryDispatch re-parks a node that is still starved.
  // RemoveNode takes a removed node off the queue.
  while (host->busy < host->cores && !host->waiting.empty()) {
    NodeRuntime* runtime = host->waiting.front();
    host->waiting.pop_front();
    runtime->in_wait_queue = false;
    TryDispatch(runtime);
  }
}

void SimNetwork::DrainInbox(std::uint32_t dest, unsigned parity) {
  Shard& shard = shards_[dest];
  std::vector<MergeKey>& keys = shard.inbox_keys;
  keys.clear();
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    const Outbox& box = shards_[src].outbox[parity][dest];
    for (std::size_t i = 0; i < box.messages.size; ++i) {
      const CrossShardMessage& msg = box.messages.entries[i];
      keys.push_back({msg.deliver_at, static_cast<std::uint32_t>(src),
                      static_cast<std::uint32_t>(i), msg.seq});
    }
  }
  if (keys.empty()) return;
  // The (deliver_at, source rank, source seq) total order — the
  // destination kernel then assigns its insertion-order tie-break seqs
  // in exactly that order, independent of worker count. The key is
  // unique, so an in-place sort needs no stability.
  std::sort(keys.begin(), keys.end(),
            [](const MergeKey& a, const MergeKey& b) {
              return std::tie(a.deliver_at, a.source, a.seq) <
                     std::tie(b.deliver_at, b.source, b.seq);
            });
  for (const MergeKey& key : keys) {
    CrossShardMessage& msg =
        shards_[key.source].outbox[parity][dest].messages.entries[key.index];
    const std::uint32_t slot =
        Park(shard, msg.envelope.from, msg.envelope.to,
             std::move(msg.envelope.message), msg.envelope.sent_at,
             msg.route, nullptr);
    shard.kernel->ScheduleAt(msg.deliver_at,
                             [this, dest, slot] { Deliver(dest, slot); });
  }
  for (Shard& source : shards_) {
    Outbox& box = source.outbox[parity][dest];
    box.messages.size = 0;
    box.earliest = SimKernel::kNoEvent;
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

std::size_t SimNetwork::RunShardedUntil(SimTime until, std::size_t workers) {
  if (!sharded()) return kernel_->RunUntil(until);
  const std::size_t crew = std::clamp<std::size_t>(workers, 1, shards_.size());
  if (crew != crew_.size() + 1) {
    StopCrew();
    StartCrew(crew);
  }
  RefreshLookahead();
  const std::uint64_t executed_before = total_executed();
  for (;;) {
    // Safe horizon: no shard can emit a cross-shard message landing
    // before (its next event time + its lookahead), so every event
    // strictly below H is already fully determined. A shard's next
    // event may still wait in an outbox bound for it.
    SimTime min_floor = SimKernel::kNoEvent;
    SimTime horizon = SimKernel::kNoEvent;
    for (std::size_t dest = 0; dest < shards_.size(); ++dest) {
      SimTime floor = shards_[dest].kernel->NextEventTime();
      for (const Shard& source : shards_) {
        floor = std::min(floor, source.outbox[parity_][dest].earliest);
      }
      min_floor = std::min(min_floor, floor);
      if (floor != SimKernel::kNoEvent) {
        horizon = std::min(horizon, floor + shards_[dest].lookahead);
      }
    }
    if (min_floor > until) break;  // nothing left inside this run
    window_bound_ = std::min(horizon, until + 1);
    // The window drains what was sent so far and sends into the other
    // parity. A shard touches only its own kernel, RNG, counters, slabs
    // and nodes, its outboxes of the new parity and its inboxes of the
    // old one, so the window is data-race-free.
    parity_ ^= 1u;
    if (!crew_.empty()) {
      window_left_.store(static_cast<std::uint32_t>(crew_.size()),
                         std::memory_order_relaxed);
      epoch_.fetch_add(1, std::memory_order_release);
      epoch_.notify_all();
    }
    std::exception_ptr error;
    try {
      RunWindow(0);
    } catch (...) {
      // The crew is still inside this window: unwind only once it is out.
      error = std::current_exception();
    }
    for (std::uint32_t left;
         (left = window_left_.load(std::memory_order_acquire)) != 0;) {
      window_left_.wait(left, std::memory_order_acquire);
    }
    for (std::exception_ptr& thrown : crew_errors_) {
      if (error == nullptr) error = thrown;
      thrown = nullptr;
    }
    if (error != nullptr) std::rethrow_exception(error);
  }
  // What the last window sent lands beyond `until`: it goes to its
  // destination kernel now, in destination order, as a future event for
  // the next call (Measure runs warmup and measurement as two
  // consecutive calls), so the outboxes are empty between calls.
  for (std::size_t dest = 0; dest < shards_.size(); ++dest) {
    DrainInbox(static_cast<std::uint32_t>(dest), parity_);
  }
  for (Shard& shard : shards_) shard.kernel->AdvanceTo(until);
  return total_executed() - executed_before;
}

void SimNetwork::RunWindow(std::size_t worker) {
  const unsigned drain = parity_ ^ 1u;
  const std::size_t stride = crew_.size() + 1;
  for (std::size_t s = worker; s < shards_.size(); s += stride) {
    const auto shard = static_cast<std::uint32_t>(s);
    DrainInbox(shard, drain);
    shards_[s].kernel->RunBefore(window_bound_);
  }
}

void SimNetwork::CrewLoop(std::size_t worker, std::uint32_t epoch) {
  for (;;) {
    // The calling thread bumps the epoch once per window and waits for
    // every worker before the next bump, so each bump is seen once.
    epoch_.wait(epoch, std::memory_order_acquire);
    ++epoch;
    if (crew_stopping_) return;
    try {
      RunWindow(worker);
    } catch (...) {
      crew_errors_[worker] = std::current_exception();
    }
    if (window_left_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      window_left_.notify_one();
    }
  }
}

void SimNetwork::StartCrew(std::size_t workers) {
  crew_stopping_ = false;
  crew_errors_.assign(workers, nullptr);
  const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed);
  for (std::size_t worker = 1; worker < workers; ++worker) {
    crew_.emplace_back(&SimNetwork::CrewLoop, this, worker, epoch);
  }
}

void SimNetwork::StopCrew() {
  if (crew_.empty()) return;
  crew_stopping_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& thread : crew_) thread.join();
  crew_.clear();
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
  const auto it = routes_.find(address);
  return it == routes_.end() || it->second.runtime == nullptr
             ? NodeStats{}
             : it->second.runtime->stats;
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
  for (const auto& [address, route] : routes_) {
    if (route.runtime != nullptr) total += route.runtime->pending.size();
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
