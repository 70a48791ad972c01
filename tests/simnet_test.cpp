// Tests for the discrete-event kernel, the topology/latency model, the
// simulated network's queueing behaviour (service times, node
// serialization, host core limits), its delivery path (no allocation
// once warm, node removal and re-adding), and the call gateway that
// drives it from outside threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "counting_new.hpp"
#include "simnet/call_gateway.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"
#include "simnet/topology.hpp"

namespace actyp::simnet {

// Reads SimNetwork's slabs, summed over every shard (a friend of the
// class).
struct SlabProbe {
  // Parcel and effects slots ever created.
  static std::size_t Slots(const SimNetwork& network) {
    std::size_t total = 0;
    for (const auto& shard : network.shards_) {
      total += shard.parcels.slots.size() + shard.effects.slots.size();
    }
    return total;
  }
  // Parcel and effects slots that hold nothing.
  static std::size_t FreeSlots(const SimNetwork& network) {
    std::size_t total = 0;
    for (const auto& shard : network.shards_) {
      total += shard.parcels.free.size() + shard.effects.free.size();
    }
    return total;
  }
};

namespace {

// --- kernel ---

TEST(Kernel, ExecutesInTimeOrder) {
  SimKernel kernel;
  std::vector<int> order;
  kernel.Schedule(Millis(30), [&] { order.push_back(3); });
  kernel.Schedule(Millis(10), [&] { order.push_back(1); });
  kernel.Schedule(Millis(20), [&] { order.push_back(2); });
  kernel.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(kernel.Now(), Millis(30));
}

TEST(Kernel, TieBreakIsInsertionOrder) {
  SimKernel kernel;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    kernel.Schedule(Millis(10), [&order, i] { order.push_back(i); });
  }
  kernel.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Kernel, EventsMayScheduleEvents) {
  SimKernel kernel;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) kernel.Schedule(Millis(1), chain);
  };
  kernel.Schedule(0, chain);
  kernel.Run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(kernel.Now(), Millis(9));
}

TEST(Kernel, RunUntilStopsAtBoundary) {
  SimKernel kernel;
  int fired = 0;
  kernel.Schedule(Millis(5), [&] { ++fired; });
  kernel.Schedule(Millis(15), [&] { ++fired; });
  kernel.RunUntil(Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(kernel.Now(), Millis(10));  // clock advances to the boundary
  EXPECT_EQ(kernel.pending(), 1u);
  kernel.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, NegativeDelayClampsToNow) {
  SimKernel kernel;
  kernel.Schedule(Millis(5), [] {});
  kernel.Run();
  bool fired = false;
  kernel.Schedule(-100, [&] { fired = true; });
  kernel.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(kernel.Now(), Millis(5));
}

// --- cancellation ---

TEST(Kernel, CancelPreventsExecution) {
  SimKernel kernel;
  int fired = 0;
  const auto id = kernel.Schedule(Millis(5), [&] { ++fired; });
  kernel.Schedule(Millis(10), [&] { fired += 10; });
  EXPECT_EQ(kernel.pending(), 2u);
  EXPECT_TRUE(kernel.Cancel(id));
  EXPECT_EQ(kernel.pending(), 1u);
  kernel.Run();
  EXPECT_EQ(fired, 10);  // only the surviving event ran
  EXPECT_EQ(kernel.executed(), 1u);
  EXPECT_EQ(kernel.cancelled(), 1u);
}

TEST(Kernel, CancelIsStaleAfterFiring) {
  SimKernel kernel;
  const auto id = kernel.Schedule(Millis(1), [] {});
  kernel.Run();
  EXPECT_FALSE(kernel.Cancel(id));
  EXPECT_FALSE(kernel.Cancel(id));  // idempotently stale
  EXPECT_FALSE(kernel.Cancel(SimKernel::kInvalidTimer));
}

TEST(Kernel, StaleIdCannotCancelReusedSlot) {
  SimKernel kernel;
  const auto first = kernel.Schedule(Millis(1), [] {});
  ASSERT_TRUE(kernel.Cancel(first));
  // The freed slot is reused; the old handle's generation is dead.
  bool fired = false;
  kernel.Schedule(Millis(2), [&] { fired = true; });
  EXPECT_FALSE(kernel.Cancel(first));
  kernel.Run();
  EXPECT_TRUE(fired);
}

TEST(Kernel, CancelHeadThenRunUntil) {
  SimKernel kernel;
  int fired = 0;
  const auto head = kernel.Schedule(Millis(1), [&] { ++fired; });
  kernel.Schedule(Millis(20), [&] { ++fired; });
  ASSERT_TRUE(kernel.Cancel(head));
  kernel.RunUntil(Millis(10));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(kernel.Now(), Millis(10));
  kernel.Run();
  EXPECT_EQ(fired, 1);
}

TEST(Kernel, CancelKeepsTieBreakOrder) {
  SimKernel kernel;
  std::vector<int> order;
  std::vector<SimKernel::TimerId> ids;
  for (int i = 0; i < 9; ++i) {
    ids.push_back(kernel.Schedule(Millis(10), [&order, i] {
      order.push_back(i);
    }));
  }
  // Cancel every third event; survivors must still run in insertion
  // order despite heap removals moving slots around.
  for (int i = 0; i < 9; i += 3) EXPECT_TRUE(kernel.Cancel(ids[i]));
  kernel.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 7, 8}));
}

TEST(Kernel, RescheduleAfterCancelPattern) {
  // The give-up-timer pattern: arm, cancel, re-arm, repeatedly.
  SimKernel kernel;
  int fired = 0;
  SimKernel::TimerId timer = SimKernel::kInvalidTimer;
  for (int round = 0; round < 100; ++round) {
    timer = kernel.Schedule(Millis(5), [&] { ++fired; });
    if (round % 2 == 0) {
      EXPECT_TRUE(kernel.Cancel(timer));
    }
    kernel.Run();
  }
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(kernel.cancelled(), 50u);
  EXPECT_TRUE(kernel.Empty());
}

TEST(Kernel, RandomizedCancelMatchesReference) {
  // Heap invariant fuzz: a mix of schedules and cancels must fire the
  // surviving events in exact (time, insertion) order.
  SimKernel kernel;
  Rng rng(2024);
  std::vector<std::pair<SimTime, std::uint64_t>> fired;
  std::vector<std::pair<SimTime, std::uint64_t>> expected;
  std::vector<SimKernel::TimerId> live;
  std::vector<std::pair<SimTime, std::uint64_t>> live_keys;
  std::uint64_t seq = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!live.empty() && rng.Bernoulli(0.3)) {
      const std::size_t victim = rng.NextBounded(live.size());
      EXPECT_TRUE(kernel.Cancel(live[victim]));
      live[victim] = live.back();
      live.pop_back();
      live_keys[victim] = live_keys.back();
      live_keys.pop_back();
    } else {
      const SimTime at = static_cast<SimTime>(rng.NextBounded(100000));
      const std::uint64_t s = seq++;
      live.push_back(kernel.ScheduleAt(at, [&fired, at, s] {
        fired.emplace_back(at, s);
      }));
      live_keys.emplace_back(at, s);
    }
  }
  expected = live_keys;
  std::sort(expected.begin(), expected.end());
  kernel.Run();
  EXPECT_EQ(fired, expected);
}

// --- topology ---

TEST(Topology, IntraSiteIsLan) {
  Topology topology;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const SimDuration latency = topology.SampleLatency("a", "b", 100, rng);
    EXPECT_GE(latency, Micros(150));
    EXPECT_LE(latency, Micros(150 + 50 + 10));
  }
}

TEST(Topology, InterSiteIsWan) {
  Topology topology = Topology::WanTwoSites("purdue", "upc");
  topology.SetHostSite("client", "purdue");
  topology.SetHostSite("server", "upc");
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const SimDuration latency =
        topology.SampleLatency("client", "server", 100, rng);
    EXPECT_GE(latency, Millis(30));
    EXPECT_LE(latency, Millis(36));
  }
}

TEST(Topology, LoopbackIsCheap) {
  Topology topology;
  Rng rng(1);
  EXPECT_LE(topology.SampleLatency("h", "h", 1000, rng), Micros(5));
}

TEST(Topology, BandwidthTermGrowsWithSize) {
  Topology topology;
  topology.SetIntraSiteLink(LinkSpec{Micros(100), 0, 10.0});
  Rng rng(1);
  const SimDuration small = topology.SampleLatency("a", "b", 0, rng);
  const SimDuration big = topology.SampleLatency("a", "b", 10000, rng);
  EXPECT_EQ(big - small, Micros(1000));  // 10000 bytes / 10 B per us
}

TEST(Topology, PerLinkOverride) {
  Topology topology;
  topology.SetHostSite("a", "s1");
  topology.SetHostSite("b", "s2");
  topology.SetLink("s1", "s2", LinkSpec{Millis(100), 0, 1e9});
  Rng rng(1);
  EXPECT_GE(topology.SampleLatency("a", "b", 10, rng), Millis(100));
  EXPECT_GE(topology.SampleLatency("b", "a", 10, rng), Millis(100));
}

// --- simulated network ---

// Consumes a fixed service time and acknowledges to the sender, echoing
// the request's "n" and request id.
class ServerNode final : public net::Node {
 public:
  explicit ServerNode(SimDuration service) : service_(service) {}
  void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
    ctx.Consume(service_);
    net::Message done{"done"};
    done.SetHeader("n", env.message.Header("n"));
    done.SetHeader(net::hdr::kRequestId,
                   env.message.Header(net::hdr::kRequestId));
    ctx.Send(env.from, std::move(done));
  }

 private:
  SimDuration service_;
};

class RecorderNode final : public net::Node {
 public:
  void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
    arrivals.push_back(ctx.Now());
    labels.push_back(env.message.Header("n"));
  }
  std::vector<SimTime> arrivals;
  std::vector<std::string> labels;
};

TEST(SimNetwork, ServiceTimeSerializesSingleServer) {
  SimKernel kernel;
  Topology topology;
  topology.SetIntraSiteLink(LinkSpec{Micros(100), 0, 0});  // fixed latency
  SimNetwork network(&kernel, topology);
  network.AddHost("server", 8);
  network.AddHost("client", 8);

  auto server = std::make_shared<ServerNode>(Millis(10));
  auto recorder = std::make_shared<RecorderNode>();
  network.AddNode("server0", server, {"server", 1});
  network.AddNode("rec", recorder, {"client", 8});

  // Two back-to-back requests from the recorder's address.
  for (int i = 0; i < 2; ++i) {
    net::Message m{"work"};
    m.SetHeader("n", std::to_string(i));
    network.Post("rec", "server0", std::move(m));
  }
  kernel.Run();

  ASSERT_EQ(recorder->arrivals.size(), 2u);
  // First: 100us there + 10ms service + 100us back = 10.2 ms.
  EXPECT_EQ(recorder->arrivals[0], Micros(100) + Millis(10) + Micros(100));
  // Second: queued behind the first -> +10ms service.
  EXPECT_EQ(recorder->arrivals[1],
            Micros(100) + Millis(20) + Micros(100));
}

TEST(SimNetwork, MultipleServersOverlap) {
  SimKernel kernel;
  Topology topology;
  topology.SetIntraSiteLink(LinkSpec{Micros(100), 0, 0});
  SimNetwork network(&kernel, topology);
  network.AddHost("server", 8);
  network.AddHost("client", 8);
  network.AddNode("server0", std::make_shared<ServerNode>(Millis(10)),
                  {"server", 2});
  auto recorder = std::make_shared<RecorderNode>();
  network.AddNode("rec", recorder, {"client", 8});

  for (int i = 0; i < 2; ++i) {
    network.Post("rec", "server0", net::Message{"work"});
  }
  kernel.Run();
  ASSERT_EQ(recorder->arrivals.size(), 2u);
  // Both served in parallel: same completion time.
  EXPECT_EQ(recorder->arrivals[0], recorder->arrivals[1]);
}

TEST(SimNetwork, HostCoreLimitThrottlesNodes) {
  SimKernel kernel;
  Topology topology;
  topology.SetIntraSiteLink(LinkSpec{Micros(100), 0, 0});
  SimNetwork network(&kernel, topology);
  network.AddHost("server", 1);  // one core shared by two nodes
  network.AddHost("client", 8);
  network.AddNode("s0", std::make_shared<ServerNode>(Millis(10)),
                  {"server", 1});
  network.AddNode("s1", std::make_shared<ServerNode>(Millis(10)),
                  {"server", 1});
  auto recorder = std::make_shared<RecorderNode>();
  network.AddNode("rec", recorder, {"client", 8});

  network.Post("rec", "s0", net::Message{"work"});
  network.Post("rec", "s1", net::Message{"work"});
  kernel.Run();
  ASSERT_EQ(recorder->arrivals.size(), 2u);
  // The single core serializes the two nodes: 10ms apart.
  EXPECT_EQ(recorder->arrivals[1] - recorder->arrivals[0], Millis(10));
}

TEST(SimNetwork, TwelveCoreHostRunsTwelveConcurrently) {
  SimKernel kernel;
  Topology topology;
  topology.SetIntraSiteLink(LinkSpec{Micros(100), 0, 0});
  SimNetwork network(&kernel, topology);
  network.AddHost("alpha", 12);
  network.AddHost("client", 16);
  for (int i = 0; i < 16; ++i) {
    network.AddNode("s" + std::to_string(i),
                    std::make_shared<ServerNode>(Millis(10)), {"alpha", 1});
  }
  auto recorder = std::make_shared<RecorderNode>();
  network.AddNode("rec", recorder, {"client", 16});
  for (int i = 0; i < 16; ++i) {
    network.Post("rec", "s" + std::to_string(i), net::Message{"work"});
  }
  kernel.Run();
  ASSERT_EQ(recorder->arrivals.size(), 16u);
  std::multiset<SimTime> times(recorder->arrivals.begin(),
                               recorder->arrivals.end());
  // 12 finish in the first wave, 4 in the second.
  EXPECT_EQ(times.count(*times.begin()), 12u);
}

TEST(SimNetwork, DropsToUnknownNodeCounted) {
  SimKernel kernel;
  SimNetwork network(&kernel, Topology{});
  network.Post("x", "ghost", net::Message{"m"});
  kernel.Run();
  EXPECT_EQ(network.dropped_messages(), 1u);
}

TEST(SimNetwork, DuplicateAddressRejected) {
  SimKernel kernel;
  SimNetwork network(&kernel, Topology{});
  ASSERT_TRUE(
      network.AddNode("a", std::make_shared<RecorderNode>(), {}).ok());
  EXPECT_FALSE(
      network.AddNode("a", std::make_shared<RecorderNode>(), {}).ok());
  EXPECT_TRUE(network.HasNode("a"));
  EXPECT_FALSE(network.HasNode("b"));
}

TEST(SimNetwork, RemoveNodeStopsProcessing) {
  SimKernel kernel;
  SimNetwork network(&kernel, Topology{});
  auto recorder = std::make_shared<RecorderNode>();
  network.AddNode("rec", recorder, {});
  EXPECT_TRUE(network.HasNode("rec"));
  ASSERT_TRUE(network.RemoveNode("rec").ok());
  EXPECT_FALSE(network.HasNode("rec"));
  network.Post("x", "rec", net::Message{"m"});
  kernel.Run();
  EXPECT_TRUE(recorder->arrivals.empty());
  EXPECT_EQ(network.dropped_messages(), 1u);
}

TEST(SimNetwork, StatsTrackServiceAndQueue) {
  SimKernel kernel;
  Topology topology;
  topology.SetIntraSiteLink(LinkSpec{Micros(100), 0, 0});
  SimNetwork network(&kernel, topology);
  network.AddHost("server", 4);
  network.AddNode("s0", std::make_shared<ServerNode>(Millis(5)),
                  {"server", 1});
  for (int i = 0; i < 3; ++i) network.Post("x", "s0", net::Message{"w"});
  kernel.Run();
  const NodeStats stats = network.StatsFor("s0");
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_EQ(stats.busy_time, Millis(15));
  EXPECT_GE(stats.max_queue, 2u);
  EXPECT_EQ(network.StatsFor("missing").messages, 0u);
}

TEST(SimNetwork, DeterministicAcrossRuns) {
  auto run = [] {
    SimKernel kernel;
    SimNetwork network(&kernel, Topology{}, 99);
    network.AddHost("server", 2);
    network.AddNode("s0", std::make_shared<ServerNode>(Millis(3)),
                    {"server", 1});
    auto recorder = std::make_shared<RecorderNode>();
    network.AddNode("rec", recorder, {"server", 2});
    for (int i = 0; i < 10; ++i) {
      net::Message m{"w"};
      m.SetHeader("n", std::to_string(i));
      network.Post("rec", "s0", std::move(m));
    }
    kernel.Run();
    return recorder->arrivals;
  };
  EXPECT_EQ(run(), run());
}

class SelfTickNode final : public net::Node {
 public:
  void OnStart(net::NodeContext& ctx) override {
    ctx.ScheduleSelf(Millis(10), net::Message{"tick"});
  }
  void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
    if (env.message.type != "tick") return;
    times.push_back(ctx.Now());
    if (times.size() < 3) ctx.ScheduleSelf(Millis(10), net::Message{"tick"});
  }
  std::vector<SimTime> times;
};

TEST(SimNetwork, ScheduleSelfIsPeriodic) {
  SimKernel kernel;
  SimNetwork network(&kernel, Topology{});
  auto node = std::make_shared<SelfTickNode>();
  network.AddNode("timer", node, {});
  kernel.Run();
  ASSERT_EQ(node->times.size(), 3u);
  EXPECT_EQ(node->times[0], Millis(10));
  EXPECT_EQ(node->times[1], Millis(20));
  EXPECT_EQ(node->times[2], Millis(30));
}

// Arms a timer on start, then cancels it when told to.
class CancellingNode final : public net::Node {
 public:
  void OnStart(net::NodeContext& ctx) override {
    timer_ = ctx.ScheduleSelf(Millis(50), net::Message{"late-tick"});
    EXPECT_NE(timer_, 0u);
  }
  void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
    if (env.message.type == "cancel") {
      cancel_result = ctx.CancelSelf(timer_);
    } else if (env.message.type == "late-tick") {
      ++late_ticks;
    }
  }
  net::TimerId timer_ = 0;
  bool cancel_result = false;
  int late_ticks = 0;
};

TEST(SimNetwork, CancelSelfStopsPendingTimer) {
  SimKernel kernel;
  SimNetwork network(&kernel, Topology{});
  auto node = std::make_shared<CancellingNode>();
  network.AddNode("n", node, {});
  network.Post("x", "n", net::Message{"cancel"});
  kernel.Run();
  EXPECT_TRUE(node->cancel_result);
  EXPECT_EQ(node->late_ticks, 0);
  EXPECT_EQ(kernel.pending(), 0u);
}

TEST(SimNetwork, RemoveNodeCancelsItsSelfTimers) {
  // A crashed service's periodic tick must not deliver to the fresh
  // instance registered later under the same address (tick storms).
  SimKernel kernel;
  SimNetwork network(&kernel, Topology{});
  auto first = std::make_shared<SelfTickNode>();
  network.AddNode("svc", first, {});
  kernel.RunUntil(Millis(15));  // one tick fired, the next is pending
  ASSERT_EQ(first->times.size(), 1u);
  ASSERT_TRUE(network.RemoveNode("svc").ok());

  auto second = std::make_shared<SelfTickNode>();
  network.AddNode("svc", second, {});
  kernel.Run();
  // The replacement saw only its own cadence; the orphaned timer died
  // with the removed node instead of being delivered (or dropped).
  EXPECT_EQ(first->times.size(), 1u);
  EXPECT_EQ(second->times.size(), 3u);
  EXPECT_EQ(network.dropped_messages(), 0u);
}

// Answers each "ping" with a "pong" to its sender, and arms a short
// "tick" on every message it serves. Its messages carry only a short
// type, so the nodes themselves never allocate.
class PingPongNode final : public net::Node {
 public:
  void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
    if (env.message.type == "tick") {
      ++ticks;
      return;
    }
    ++served;
    ctx.Consume(Micros(20));
    if (env.message.type == "ping") ctx.Send(env.from, net::Message{"pong"});
    ctx.ScheduleSelf(Millis(1), net::Message{"tick"});
  }
  int served = 0;
  int ticks = 0;
};

TEST(SimNetwork, DeliveryAllocatesNothingOnceWarm) {
#if !ACTYP_COUNT_ALLOCATIONS
  GTEST_SKIP() << "allocation counter unavailable (sanitizer build)";
#else
  constexpr int kWarmRounds = 100;
  constexpr int kRounds = 1000;
  // Longer than std::string's inline buffer: a recycled slot must keep
  // its address strings' capacity.
  const net::Address ping = "ping-node.east.example.org";
  const net::Address pong = "pong-node.west.example.org";
  // One round: a ping posted by move from one node to the other on
  // another host, its pong, and a self-timer per handler.
  const auto measure = [&](SimNetwork& network, const auto& run_round) {
    auto a = std::make_shared<PingPongNode>();
    auto b = std::make_shared<PingPongNode>();
    network.AddNode(ping, a, {"host-a", 1});
    network.AddNode(pong, b, {"host-b", 1});
    const auto round = [&] {
      network.Post(ping, pong, net::Message{"ping"});
      run_round();
    };
    for (int i = 0; i < kWarmRounds; ++i) round();
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < kRounds; ++i) round();
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(a->served, kWarmRounds + kRounds);
    EXPECT_EQ(b->served, kWarmRounds + kRounds);
    EXPECT_EQ(a->ticks + b->ticks, 2 * (kWarmRounds + kRounds));
    return after - before;
  };

  SimKernel kernel;
  SimNetwork network(&kernel, Topology{}, 5);
  network.AddHost("host-a", 2);
  network.AddHost("host-b", 2);
  EXPECT_EQ(measure(network, [&] { kernel.Run(); }), 0u)
      << "allocations over " << kRounds << " warm serial rounds";

  // The LP path: every ping and pong crosses shards through the outboxes
  // and the merge between windows.
  SimKernel lp_kernel;
  SimNetwork sharded(&lp_kernel,
                     Topology::WanTwoSites("east", "west", Millis(10),
                                           Millis(2)),
                     5);
  sharded.EnableSharding({"east", "west"});
  sharded.AddHost("host-a", 2, "east");
  sharded.AddHost("host-b", 2, "west");
  SimTime until = 0;
  EXPECT_EQ(measure(sharded,
                    [&] {
                      until += Millis(100);
                      sharded.RunShardedUntil(until);
                    }),
            0u)
      << "allocations over " << kRounds << " warm sharded rounds";
#endif
}

// Serves each "work" message for 10 ms and arms a 50 ms "tick" on start
// and on every message it serves; journals both as "<name>:<n>" and
// "<name>:tick".
class JournalNode final : public net::Node {
 public:
  JournalNode(std::string name, std::vector<std::string>* journal)
      : name_(std::move(name)), journal_(journal) {}
  void OnStart(net::NodeContext& ctx) override {
    ctx.ScheduleSelf(Millis(50), net::Message{"tick"});
  }
  void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
    if (env.message.type == "tick") {
      if (journal_ != nullptr) journal_->push_back(name_ + ":tick");
      return;
    }
    if (journal_ != nullptr) {
      journal_->push_back(name_ + ":" + env.message.Header("n"));
    }
    ctx.Consume(Millis(10));
    ctx.ScheduleSelf(Millis(50), net::Message{"tick"});
  }

 private:
  std::string name_;
  std::vector<std::string>* journal_;
};

net::Message Work(const std::string& n) {
  net::Message message{"work"};
  message.SetHeader("n", n);
  return message;
}

TEST(SimNetwork, RemoveAndReaddKeepsDeliverySemantics) {
  SimKernel kernel;
  Topology topology;
  topology.SetIntraSiteLink(LinkSpec{Micros(100), 0, 0});
  SimNetwork network(&kernel, topology, 3);
  network.AddHost("server", 1);  // one core for both nodes
  std::vector<std::string> journal;
  auto old_node = std::make_shared<JournalNode>("old", &journal);
  const std::weak_ptr<JournalNode> old_weak = old_node;
  network.AddNode("svc", std::move(old_node), {"server", 2});
  network.AddNode("nbr", std::make_shared<JournalNode>("nbr", &journal),
                  {"server", 1});

  // At 0.1 ms "svc" starts serving 0 (until 10.1 ms) on the only core;
  // 1 and 2 queue behind it, and both nodes wait for the core.
  for (const char* n : {"0", "1", "2"}) network.Post("client", "svc", Work(n));
  network.Post("client", "nbr", Work("x"));
  kernel.RunUntil(Millis(5));
  ASSERT_EQ(journal, (std::vector<std::string>{"old:0"}));

  // Sent before the removal, landing after the re-add.
  network.Post("client", "svc", Work("in-flight"));
  const std::size_t free_before = SlabProbe::FreeSlots(network);
  ASSERT_TRUE(network.RemoveNode("svc").ok());
  // Its two queued messages and its armed start tick went back.
  EXPECT_EQ(SlabProbe::FreeSlots(network), free_before + 3);
  network.AddNode("svc", std::make_shared<JournalNode>("new", &journal),
                  {"server", 2});

  // The old node's handler is still in service, so its Node lives.
  kernel.RunUntil(Millis(10));
  EXPECT_FALSE(old_weak.expired());
  kernel.RunUntil(Millis(10) + Micros(100));
  EXPECT_TRUE(old_weak.expired());

  kernel.Run();
  // The core goes to the neighbour first, then to the new node for the
  // in-flight message. The old node's queued messages are dropped with
  // it, uncounted, and its timers never fire.
  EXPECT_EQ(journal,
            (std::vector<std::string>{"old:0", "nbr:x", "new:in-flight",
                                      "nbr:tick", "new:tick", "nbr:tick",
                                      "new:tick"}));
  EXPECT_EQ(network.dropped_messages(), 0u);
  EXPECT_EQ(network.StatsFor("svc").messages, 3u);  // with two ticks
  EXPECT_EQ(SlabProbe::FreeSlots(network), SlabProbe::Slots(network));

  // The same removal, 10,000 times over: no slab grows, and each old
  // Node is freed once its completion has run.
  const auto cycle = [&] {
    auto node = std::make_shared<JournalNode>("old", nullptr);
    const std::weak_ptr<JournalNode> weak = node;
    network.AddNode("svc", std::move(node), {"server", 2});
    for (const char* n : {"0", "1", "2"}) {
      network.Post("client", "svc", Work(n));
    }
    kernel.RunUntil(kernel.Now() + Millis(5));
    network.Post("client", "svc", Work("in-flight"));
    EXPECT_TRUE(network.RemoveNode("svc").ok());
    network.AddNode("svc", std::make_shared<JournalNode>("new", nullptr),
                    {"server", 2});
    kernel.Run();
    EXPECT_TRUE(weak.expired());
    EXPECT_TRUE(network.RemoveNode("svc").ok());
  };
  ASSERT_TRUE(network.RemoveNode("svc").ok());
  cycle();
  const std::size_t slots = SlabProbe::Slots(network);
  for (int i = 0; i < 10000; ++i) cycle();
  EXPECT_EQ(SlabProbe::Slots(network), slots);
  EXPECT_EQ(SlabProbe::FreeSlots(network), slots);
  EXPECT_EQ(network.dropped_messages(), 0u);
}

// --- call gateway ---

TEST(CallGateway, ReturnsTheEntrysReplyInSimulatedTime) {
  SimKernel kernel;
  Topology topology;
  topology.SetIntraSiteLink(LinkSpec{Micros(100), 0, 0});  // fixed latency
  SimNetwork network(&kernel, topology);
  network.AddNode("server0", std::make_shared<ServerNode>(Millis(10)),
                  {"server", 1});
  CallGateway gateway(&network);

  net::Message request{"work"};
  request.SetHeader("n", "7");
  const net::Message reply = gateway.Call("server0", std::move(request));
  EXPECT_EQ(reply.type, "done");
  EXPECT_EQ(reply.Header("n"), "7");
  // 100us there + 10ms service + 100us back, all simulated.
  EXPECT_EQ(kernel.Now(), Micros(100) + Millis(10) + Micros(100));
}

TEST(CallGateway, ReportsATakenAddress) {
  SimKernel kernel;
  SimNetwork network(&kernel, Topology{});
  network.AddNode(CallGateway::kAddress, std::make_shared<RecorderNode>(),
                  {});
  CallGateway gateway(&network);
  const net::Message reply = gateway.Call("anywhere", net::Message{"work"});
  EXPECT_EQ(reply.type, net::msg::kFailure);
  EXPECT_NE(reply.Header(net::hdr::kError).find(CallGateway::kAddress),
            std::string::npos);
  EXPECT_EQ(kernel.pending(), 0u);  // nothing was posted
}

// Ticks every 300 ms forever and answers nothing, so the kernel never
// runs dry: only the deadline can end a call routed here. No tick lands
// on a 5 s deadline, so a timed-out call must advance the clock itself.
class TickForeverNode final : public net::Node {
 public:
  void OnStart(net::NodeContext& ctx) override {
    ctx.ScheduleSelf(Millis(300), net::Message{"tick"});
  }
  void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
    if (env.message.type == "tick") {
      ctx.ScheduleSelf(Millis(300), net::Message{"tick"});
    }
  }
};

TEST(CallGateway, TimesOutWhenNoReplyComes) {
  SimKernel kernel;
  SimNetwork network(&kernel, Topology{});
  network.AddNode("ticker", std::make_shared<TickForeverNode>(),
                  {"ticker", 1});
  network.AddNode("slow", std::make_shared<ServerNode>(Seconds(6.0)),
                  {"slow", 1});
  network.AddNode("server0", std::make_shared<ServerNode>(Millis(10)),
                  {"server", 1});
  CallGateway gateway(&network);

  // The slow server answers after the deadline...
  const net::Message late = gateway.Call("slow", net::Message{"work"});
  EXPECT_EQ(late.type, net::msg::kFailure);
  EXPECT_EQ(late.Header(net::hdr::kError), "gateway timeout");
  EXPECT_EQ(kernel.Now(), CallGateway::kCallTimeout);

  // ...and its straggling reply lands inside the next call, which must
  // not take it for its own.
  const net::Message unanswered =
      gateway.Call("ticker", net::Message{"work"});
  EXPECT_EQ(unanswered.Header(net::hdr::kError), "gateway timeout");
  EXPECT_EQ(kernel.Now(), 2 * CallGateway::kCallTimeout);

  EXPECT_EQ(gateway.Call("server0", net::Message{"work"}).type, "done");
}

TEST(CallGateway, CallsFromThreadsTakeTurns) {
  SimKernel kernel;
  SimNetwork network(&kernel, Topology{});
  network.AddNode("server0", std::make_shared<ServerNode>(Millis(1)), {});
  CallGateway gateway(&network);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&gateway, &mismatches, t] {
      for (int i = 0; i < 50; ++i) {
        const std::string n = std::to_string(t) + "." + std::to_string(i);
        net::Message request{"work"};
        request.SetHeader("n", n);
        const net::Message reply = gateway.Call("server0", std::move(request));
        if (reply.type != "done" || reply.Header("n") != n) ++mismatches;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(network.StatsFor("server0").messages, 200u);
}

}  // namespace
}  // namespace actyp::simnet
