// SimNetwork: the discrete-event implementation of net::Network.
//
// Model:
//   - Nodes live on hosts; a host has a fixed number of cores (the
//     paper's ActYP server was a 12-processor Alpha).
//   - A node processes messages FCFS with `placement.servers` concurrent
//     units; starting a unit of work also requires a free host core.
//   - Handler side effects (sends, self-schedules) take effect when the
//     declared service time (NodeContext::Consume) completes, so service
//     time and queueing delay compose exactly as in a queueing network.
//
// Delivery path: once warm, a message costs no heap allocation and one
// string-keyed lookup.
//   - Every address ever registered has a route: its host (with the
//     host's site and shard resolved when the host was created) and the
//     node registered there now. A send looks its destination up once;
//     the sender's host comes from its runtime.
//   - An envelope in flight or queued at a node is a parcel in its
//     destination shard's slab (stable storage plus a free list); the
//     kernel event that delivers it, and a node's pending queue, hold
//     only its slot. A handler's buffered effects live in an effects
//     slot of its shard until its completion event applies them. Slots
//     go back to their slab with their strings' and vectors' capacity.
//   - A delivery resolves the route's current node when it lands, so a
//     node registered after the send (or re-added after a removal)
//     still gets it. A removed node's runtime is freed once no queued
//     event refers to it.
//
// LP-parallel mode (EnableSharding): sites become logical processes,
// each with its own slab-backed kernel, RNG stream, counters, and parcel
// and effects slabs. Intra-site traffic stays on the owning shard's
// kernel; cross-site messages go through per-(source, destination)
// outboxes that RunShardedUntil merges between windows in a fixed
// (deliver_at, source rank, source sequence) total order. Shards execute
// under a conservative window protocol — safe horizon W = min over
// shards of (next event time + lookahead), lookahead = min outbound
// cross-site base latency — so a shard never receives a message with a
// timestamp it has already passed. Every draw and every tie-break is
// shard-local, which makes fixed-seed replay byte-identical for any
// worker count (1, 2, 4, ...).
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "net/node.hpp"
#include "simnet/kernel.hpp"
#include "simnet/topology.hpp"

namespace actyp::obs {
class FlightRecorder;
}  // namespace actyp::obs

namespace actyp::simnet {

struct NodeStats {
  std::uint64_t messages = 0;
  SimDuration busy_time = 0;
  std::uint64_t max_queue = 0;
};

class SimNetwork final : public net::Network {
 public:
  SimNetwork(SimKernel* kernel, Topology topology, std::uint64_t seed = 42);
  ~SimNetwork() override;

  // Switches to LP-parallel mode with one shard per listed site. Shard 0
  // reuses the primary kernel; the rest own private kernels. Must be
  // called before any AddHost/AddNode; hosts whose site is not listed
  // land on shard 0. Sharding is a property of the *scenario*, not of
  // the worker count: a sharded network replays identically whether
  // RunShardedUntil gets 1 worker or many.
  void EnableSharding(const std::vector<std::string>& sites);
  [[nodiscard]] bool sharded() const { return shards_.size() > 1; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  // Declares a host with `cores` processors. Nodes placed on undeclared
  // hosts get an implicit single-core host.
  void AddHost(const std::string& name, int cores,
               const std::string& site = "local");

  Status AddNode(const net::Address& address, std::shared_ptr<net::Node> node,
                 const net::NodePlacement& placement) override;
  Status RemoveNode(const net::Address& address) override;
  [[nodiscard]] bool HasNode(const net::Address& address) const override;

  void Post(const net::Address& from, const net::Address& to,
            net::Message message) override;

  // Conservative-window execution of a sharded network up to `until`
  // (inclusive, like SimKernel::RunUntil). Each round merges the cross-
  // shard outboxes, computes the safe horizon, and runs every shard's
  // sub-window — on `pool` when given (one task per shard, barrier via
  // Drain), inline otherwise. Returns events executed. Also valid on an
  // unsharded network, where it degenerates to kernel().RunUntil.
  std::size_t RunShardedUntil(SimTime until, ThreadPool* pool = nullptr);

  // Events executed across every shard kernel (== kernel().executed()
  // when unsharded).
  [[nodiscard]] std::uint64_t total_executed() const;

  [[nodiscard]] SimKernel& kernel() { return *kernel_; }
  [[nodiscard]] Topology& topology() { return topology_; }

  [[nodiscard]] NodeStats StatsFor(const net::Address& address) const;
  [[nodiscard]] std::uint64_t dropped_messages() const;

  // Fault injection: every Post between *distinct* nodes is lost with
  // this probability (self-messages/timers are never dropped — they
  // model local state, not the network).
  void SetLossProbability(double p) { loss_probability_ = p; }
  [[nodiscard]] double loss_probability() const { return loss_probability_; }
  [[nodiscard]] std::uint64_t lost_messages() const;
  // Messages dropped on a cut site pair (Topology::SetPartition).
  [[nodiscard]] std::uint64_t partition_dropped() const;

  // Attaches a flight recorder to `shard` (not owned; must outlive the
  // network). Each shard records only from its own execution, so the
  // recorders need no locking; null detaches. Recording draws nothing
  // and consumes nothing — attaching is invisible to the simulation.
  void SetFlightRecorder(std::size_t shard, obs::FlightRecorder* recorder);

  // Telemetry gauges, summed across shards/hosts/nodes. Deterministic
  // reads (no draws, no consumption); call only between run windows.
  [[nodiscard]] std::uint64_t pending_events() const;
  [[nodiscard]] std::uint64_t queued_messages() const;
  [[nodiscard]] std::uint64_t busy_cores() const;

  // Tests read the slabs' sizes through this (tests/simnet_test.cpp).
  friend struct SlabProbe;

 private:
  struct NodeRuntime;
  struct Route;

  // A FIFO that keeps its capacity, so a warm ring never allocates.
  // Capacity is zero or a power of two.
  template <typename T>
  class Ring {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] T front() const { return items_[head_]; }
    void push_back(T value) {
      if (size_ == items_.size()) Grow();
      items_[(head_ + size_) & (items_.size() - 1)] = value;
      ++size_;
    }
    void pop_front() {
      head_ = (head_ + 1) & (items_.size() - 1);
      --size_;
    }
    // Drops every entry equal to `value`; the rest keep their order.
    void Remove(T value) {
      const std::size_t mask = items_.size() - 1;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < size_; ++i) {
        const T item = items_[(head_ + i) & mask];
        if (item != value) items_[(head_ + kept++) & mask] = item;
      }
      size_ = kept;
    }

   private:
    void Grow() {
      std::vector<T> grown(std::max<std::size_t>(4, 2 * items_.size()));
      for (std::size_t i = 0; i < size_; ++i) {
        grown[i] = items_[(head_ + i) & (items_.size() - 1)];
      }
      items_.swap(grown);
      head_ = 0;
    }

    std::vector<T> items_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  // Slot storage that never moves a slot (a reference taken before a
  // handler runs survives slots the handler's own calls acquire) and
  // recycles released slots with whatever capacity their members kept.
  template <typename T>
  struct Slab {
    std::deque<T> slots;
    std::vector<std::uint32_t> free;

    std::uint32_t Acquire() {
      if (free.empty()) {
        slots.emplace_back();
        return static_cast<std::uint32_t>(slots.size() - 1);
      }
      const std::uint32_t slot = free.back();
      free.pop_back();
      return slot;
    }
    void Release(std::uint32_t slot) { free.push_back(slot); }
  };

  // A list whose entries past `size` are spares: a string assigned into
  // a recycled entry reuses its capacity.
  template <typename T>
  struct Recycler {
    std::vector<T> entries;
    std::size_t size = 0;

    T& Append() {
      if (size == entries.size()) entries.emplace_back();
      return entries[size++];
    }
  };

  struct Host {
    std::string name;
    // The host's site, resolved once; it points into topology_, so it
    // follows a later Topology::SetHostSite.
    const std::string* site = nullptr;
    int cores = 1;
    int busy = 0;
    std::uint32_t shard = 0;
    // Nodes with queued work that could not start because every core was
    // busy, in blocking order. Freed cores go to these nodes directly
    // instead of polling every node on the host.
    Ring<NodeRuntime*> waiting;
  };

  // A self-timer armed on the kernel; its envelope waits in `slot`.
  struct ArmedTimer {
    net::TimerId id = 0;
    SimKernel::TimerId kernel_id = SimKernel::kInvalidTimer;
    std::uint32_t slot = 0;
  };

  struct NodeRuntime {
    net::Address address;
    std::shared_ptr<net::Node> node;
    net::NodePlacement placement;
    Host* host = nullptr;
    // Parcel slots in the home shard's slab, in arrival order.
    Ring<std::uint32_t> pending;
    // Handlers in service. Their completion events are the only events
    // that refer to the runtime once it is removed.
    int busy = 0;
    bool removed = false;
    bool in_wait_queue = false;
    Rng rng;
    NodeStats stats;
    // Outstanding self-scheduled timers. RemoveNode cancels them all, so
    // a crashed service's periodic ticks and give-up timers vanish
    // instead of delivering to its successor.
    std::vector<ArmedTimer> timers;
  };

  // One per address ever registered; routes survive removal.
  struct Route {
    Host* host = nullptr;  // of the latest registration
    std::unique_ptr<NodeRuntime> runtime;  // registered there now, or null
  };

  // An envelope in flight or queued at a node.
  struct Parcel {
    net::Envelope envelope;
    // A send's destination; null when no node had registered the address
    // when it was sent, so the delivery looks it up by name.
    Route* route = nullptr;
    NodeRuntime* owner = nullptr;  // a self-timer's node
  };

  // The effects of one handler invocation, applied when its declared
  // service time elapses.
  struct Effects {
    struct Send {
      net::Address to;
      net::Message message;
    };
    struct SelfTimer {
      SimDuration delay = 0;
      net::TimerId id = 0;
      net::Message message;
    };
    NodeRuntime* runtime = nullptr;
    SimDuration consumed = 0;
    Recycler<Send> sends;
    std::vector<SelfTimer> timers;
  };

  // A message crossing shards, parked in the sender's outbox until the
  // next inter-window merge. `seq` is the sender's append order — the
  // final tie-break of the deterministic merge.
  struct CrossShardMessage {
    SimTime deliver_at = 0;
    std::uint64_t seq = 0;
    net::Envelope envelope;
    Route* route = nullptr;
  };

  // One logical process: a site's kernel, RNG stream, counters and
  // slabs. Everything here is touched only by the shard's own execution
  // (or between windows, single-threaded), so shards share no mutable
  // state.
  struct Shard {
    SimKernel* kernel = nullptr;         // shard 0 aliases kernel_
    std::unique_ptr<SimKernel> owned;    // shards 1..K-1
    std::string site;
    Rng rng;                             // loss + latency draws
    net::TimerId next_timer_id = 1;
    std::uint64_t out_seq = 0;
    SimDuration lookahead = Micros(1);
    std::uint64_t dropped = 0;
    std::uint64_t lost = 0;
    std::uint64_t partition_dropped = 0;
    Slab<Parcel> parcels;    // envelopes bound for this shard's nodes
    Slab<Effects> effects;   // this shard's handlers in service
    std::vector<Recycler<CrossShardMessage>> outbox;  // per dest shard
    // Optional flight recorder (not owned); written only from this
    // shard's execution.
    obs::FlightRecorder* recorder = nullptr;
  };

  // DrainMailboxes' sort key for one outbox entry.
  struct MergeKey {
    SimTime deliver_at = 0;
    std::uint32_t source = 0;
    std::uint32_t index = 0;
    std::uint64_t seq = 0;
  };

  class Context;

  Host* GetOrCreateHost(const std::string& name);
  [[nodiscard]] std::uint32_t ShardOfSite(const std::string& site) const;
  // Routes one message from `from` (on `from_host`; null for a sender
  // that is not a node): the loss, partition and latency draws on the
  // sending shard, then a parcel on the destination shard or an outbox
  // entry for it.
  void Transmit(const net::Address& from, const Host* from_host,
                const net::Address& to, net::Message&& message);
  // Parks an envelope in `shard`'s slab and returns its slot.
  std::uint32_t Park(Shard& shard, const net::Address& from,
                     const net::Address& to, net::Message&& message,
                     SimTime sent_at, Route* route, NodeRuntime* owner);
  // Kernel events: a send lands, a self-timer fires, a handler's
  // service time ends. Each names its shard and slot.
  void Deliver(std::uint32_t shard, std::uint32_t slot);
  void FireTimer(std::uint32_t shard, std::uint32_t slot);
  void Complete(std::uint32_t shard, std::uint32_t slot);
  void Enqueue(NodeRuntime* runtime, std::uint32_t slot);
  void TryDispatch(NodeRuntime* runtime);
  void WakeHost(Host* host);
  // Applies a handler's buffered sends/timer ops at completion time.
  void ApplyEffects(NodeRuntime* runtime, Effects& effects);
  // Frees a removed runtime that no queued event refers to any more.
  void FreeRemoved(NodeRuntime* runtime);
  // Moves every outbox message into its destination kernel, merged per
  // destination in (deliver_at, source rank, source seq) order. Single-
  // threaded: runs only between windows.
  void DrainMailboxes();
  void RefreshLookahead();

  SimKernel* kernel_;
  Topology topology_;
  Rng seeder_;
  // shards_[0] always exists and aliases kernel_/seeder_-driven serial
  // behavior; EnableSharding appends the rest.
  std::vector<Shard> shards_;
  std::unordered_map<std::string, std::uint32_t> site_shard_;
  std::map<std::string, std::unique_ptr<Host>> hosts_;
  // Looked up once per send; no ordered iteration anywhere. Node-based,
  // so parcels keep pointers to routes across rehashes.
  std::unordered_map<net::Address, Route> routes_;
  // Removed runtimes whose handlers are still in service.
  std::vector<std::unique_ptr<NodeRuntime>> removed_;
  double loss_probability_ = 0.0;
  // Scratch for DrainMailboxes, reused across rounds.
  std::vector<MergeKey> merge_scratch_;
};

}  // namespace actyp::simnet
