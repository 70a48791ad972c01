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
// LP-parallel mode (EnableSharding): sites become logical processes,
// each with its own slab-backed kernel, RNG stream, and counters. Intra-
// site traffic stays on the owning shard's kernel; cross-site messages
// go through per-(source, destination) outboxes that RunShardedUntil
// merges between windows in a fixed (deliver_at, source rank, source
// sequence) total order. Shards execute under a conservative window
// protocol — safe horizon W = min over shards of (next event time +
// lookahead), lookahead = min outbound cross-site base latency — so a
// shard never receives a message with a timestamp it has already passed.
// Every draw and every tie-break is shard-local, which makes fixed-seed
// replay byte-identical for any worker count (1, 2, 4, ...).
#pragma once

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

 private:
  struct NodeRuntime;

  struct Host {
    std::string name;
    int cores = 1;
    int busy = 0;
    std::uint32_t shard = 0;
    // Nodes with queued work that could not start because every core was
    // busy, in blocking order. Freed cores go to these nodes directly
    // instead of polling every node on the host.
    std::deque<std::shared_ptr<NodeRuntime>> waiting;
  };

  struct NodeRuntime {
    net::Address address;
    std::shared_ptr<net::Node> node;
    net::NodePlacement placement;
    Host* host = nullptr;
    std::deque<net::Envelope> pending;
    int busy = 0;
    bool removed = false;
    bool in_wait_queue = false;
    Rng rng;
    NodeStats stats;
    // Outstanding self-scheduled timers: node-level id -> kernel timer.
    // RemoveNode cancels them all, so a crashed service's periodic ticks
    // and give-up timers vanish instead of delivering to its successor.
    std::unordered_map<net::TimerId, SimKernel::TimerId> timers;
  };

  // A message crossing shards, parked in the sender's outbox until the
  // next inter-window merge. `seq` is the sender's append order — the
  // final tie-break of the deterministic merge.
  struct CrossShardMessage {
    SimTime deliver_at = 0;
    std::uint64_t seq = 0;
    net::Envelope envelope;
  };

  // One logical process: a site's kernel, RNG stream, and counters.
  // Everything here is touched only by the shard's own execution (or
  // between windows, single-threaded), so shards share no mutable state.
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
    std::vector<std::vector<CrossShardMessage>> outbox;  // per dest shard
    // Optional flight recorder (not owned); written only from this
    // shard's execution.
    obs::FlightRecorder* recorder = nullptr;
  };

  class Context;
  struct Effects;

  Host* GetOrCreateHost(const std::string& name);
  [[nodiscard]] std::uint32_t ShardOfSite(const std::string& site) const;
  void Deliver(net::Envelope envelope);
  void TryDispatch(const std::shared_ptr<NodeRuntime>& runtime);
  void WakeHost(Host* host);
  // Applies a handler's buffered sends/timer ops at completion time.
  void ApplyEffects(const std::shared_ptr<NodeRuntime>& runtime,
                    Effects effects);
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
  // Looked up per message delivery; no ordered iteration anywhere.
  std::unordered_map<net::Address, std::shared_ptr<NodeRuntime>> nodes_;
  std::unordered_map<net::Address, std::string> node_host_;  // survives removal
  double loss_probability_ = 0.0;
  // Scratch for DrainMailboxes, reused across rounds.
  std::vector<CrossShardMessage> merge_scratch_;
};

}  // namespace actyp::simnet
