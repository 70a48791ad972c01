// Tests for the workload substrate: the Fig. 9 CPU-time mixture, the
// synthetic fleet builder, the query generator, the response collector,
// and the closed-loop client node.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "common/strings.hpp"
#include "db/shadow.hpp"
#include "query/parser.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"
#include "workload/client.hpp"
#include "workload/cpu_time.hpp"
#include "workload/generator.hpp"

namespace actyp::workload {
namespace {

// --- CPU time model (Fig. 9 shape) ---

TEST(CpuTime, SamplesArePositive) {
  CpuTimeModel model;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(model.Sample(rng), 0.0);
}

TEST(CpuTime, MassSitsAtFewSeconds) {
  CpuTimeModel model;
  Rng rng(2);
  int below_30s = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) below_30s += (model.Sample(rng) <= 30.0);
  // The paper's histogram has the bulk of 236,222 runs at a few seconds.
  EXPECT_GT(static_cast<double>(below_30s) / n, 0.55);
}

TEST(CpuTime, TailReachesBeyond1e6Seconds) {
  CpuTimeModel model;
  Rng rng(3);
  double max_seen = 0;
  for (int i = 0; i < 236222; ++i) {
    max_seen = std::max(max_seen, model.Sample(rng));
  }
  // "observed CPU times extend out to more than 1e6 seconds".
  EXPECT_GT(max_seen, 1e6);
}

TEST(CpuTime, HistogramModeIsInFirstBuckets) {
  CpuTimeModel model;
  Rng rng(4);
  Histogram histogram(0, 1000, 100);  // Fig. 9's truncated X axis
  for (int i = 0; i < 236222; ++i) histogram.Add(model.Sample(rng));
  std::size_t mode = 0;
  for (std::size_t b = 1; b < histogram.bucket_count(); ++b) {
    if (histogram.bucket(b) > histogram.bucket(mode)) mode = b;
  }
  EXPECT_LE(mode, 2u);  // peak within the first ~30 seconds
  EXPECT_GT(histogram.overflow(), 0u);  // tail beyond the axis
}

// --- fleet generator ---

TEST(Fleet, BuildsRequestedCount) {
  db::ResourceDatabase database;
  db::ShadowAccountRegistry shadows;
  FleetSpec spec;
  spec.machine_count = 320;
  spec.cluster_count = 8;
  Rng rng(5);
  BuildFleet(spec, rng, &database, &shadows);
  EXPECT_EQ(database.size(), 320u);
}

TEST(Fleet, ClustersAreUniform) {
  db::ResourceDatabase database;
  FleetSpec spec;
  spec.machine_count = 320;
  spec.cluster_count = 8;
  Rng rng(5);
  BuildFleet(spec, rng, &database, nullptr);
  std::map<std::string, int> per_cluster;
  database.VisitAll([&](const db::MachineRecord& rec) {
    ++per_cluster[rec.params.at("cluster")];
  });
  ASSERT_EQ(per_cluster.size(), 8u);
  for (const auto& [cluster, count] : per_cluster) EXPECT_EQ(count, 40);
}

TEST(Fleet, MachinesHaveUsableAttributes) {
  db::ResourceDatabase database;
  db::ShadowAccountRegistry shadows;
  FleetSpec spec;
  spec.machine_count = 50;
  Rng rng(6);
  BuildFleet(spec, rng, &database, &shadows);
  database.VisitAll([&](const db::MachineRecord& rec) {
    EXPECT_TRUE(rec.IsUsable());
    EXPECT_TRUE(rec.params.count("arch"));
    EXPECT_GT(rec.dyn.available_memory_mb, 0);
    EXPECT_GT(rec.effective_speed, 0);
    EXPECT_FALSE(rec.shadow_pool.empty());
    EXPECT_NE(shadows.Find(rec.shadow_pool), nullptr);
  });
}

TEST(Fleet, DeterministicForSeed) {
  auto build = [] {
    db::ResourceDatabase database;
    FleetSpec spec;
    spec.machine_count = 64;
    Rng rng(7);
    BuildFleet(spec, rng, &database, nullptr);
    return database.Serialize();
  };
  EXPECT_EQ(build(), build());
}

// --- query generator ---

TEST(QueryGen, TargetsRequestedCluster) {
  QuerySpec spec;
  spec.cluster_count = 4;
  QueryGenerator generator(spec);
  auto q = query::Parser::ParseBasic(generator.ForCluster(2));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->GetRsrc("cluster")->value.text(), "c2");
  EXPECT_EQ(q->GetUser("accessgroup"), "ece");
}

TEST(QueryGen, StripesUniformly) {
  QuerySpec spec;
  spec.cluster_count = 4;
  QueryGenerator generator(spec);
  Rng rng(8);
  std::map<std::string, int> counts;
  for (int i = 0; i < 4000; ++i) {
    auto q = query::Parser::ParseBasic(generator.Next(rng));
    ++counts[q->GetRsrc("cluster")->value.text()];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [cluster, count] : counts) {
    EXPECT_NEAR(count, 1000, 120);
  }
}

TEST(QueryGen, HotFractionBiasesClusterZero) {
  QuerySpec spec;
  spec.cluster_count = 4;
  spec.hot_fraction = 0.8;
  QueryGenerator generator(spec);
  Rng rng(9);
  int hot = 0;
  for (int i = 0; i < 2000; ++i) {
    auto q = query::Parser::ParseBasic(generator.Next(rng));
    hot += (q->GetRsrc("cluster")->value.text() == "c0");
  }
  EXPECT_GT(hot, 1600);  // 0.8 + 0.05 residual uniform share
}

TEST(QueryGen, OptionalMemoryConstraint) {
  QuerySpec spec;
  spec.include_memory_constraint = true;
  spec.min_memory_mb = 128;
  QueryGenerator generator(spec);
  auto q = query::Parser::ParseBasic(generator.ForCluster(0));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->GetRsrc("memory")->op, query::CmpOp::kGe);
  EXPECT_EQ(q->GetRsrc("memory")->value.text(), "128");
}

// --- response collector ---

TEST(Collector, AggregatesAndResets) {
  ResponseCollector collector;
  collector.RecordResponse(Millis(10));
  collector.RecordResponse(Millis(30));
  collector.RecordFailure();
  EXPECT_EQ(collector.completed(), 2u);
  EXPECT_EQ(collector.failures(), 1u);
  EXPECT_NEAR(collector.response_stats().mean(), 0.020, 1e-9);
  EXPECT_NEAR(collector.QuantileSeconds(1.0), 0.030, 1e-9);
  collector.Reset();
  EXPECT_EQ(collector.completed(), 0u);
  EXPECT_EQ(collector.failures(), 0u);
}

// --- client node against a scripted allocator ---

// Minimal allocator: returns an allocation for every query after a fixed
// service delay; counts releases.
class ScriptedPool final : public net::Node {
 public:
  explicit ScriptedPool(SimDuration service) : service_(service) {}
  void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
    if (env.message.type == net::msg::kQuery) {
      ctx.Consume(service_);
      pipeline::Allocation allocation;
      allocation.machine_name = "m0";
      allocation.machine_id = 1;
      allocation.session_key = "sess-" + std::to_string(++seq_);
      allocation.pool_address = ctx.self();
      allocation.request_id = 0;
      if (auto rid = ParseInt(env.message.Header(net::hdr::kRequestId))) {
        allocation.request_id = static_cast<std::uint64_t>(*rid);
      }
      ctx.Send(env.message.Header(net::hdr::kReplyTo),
               pipeline::MakeAllocationMessage(allocation));
      ++queries;
    } else if (env.message.type == net::msg::kRelease) {
      ++releases;
    }
  }
  SimDuration service_;
  int seq_ = 0;
  int queries = 0;
  int releases = 0;
};

TEST(ClientNode, ClosedLoopIssuesAndReleases) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 10);
  network.AddHost("alpha", 4);
  auto pool = std::make_shared<ScriptedPool>(Millis(5));
  network.AddNode("pool", pool, {"alpha", 1});

  ResponseCollector collector;
  ClientConfig config;
  config.client_id = 1;
  config.entry = "pool";
  config.make_query = [](Rng&) {
    return std::string("punch.rsrc.cluster = c0\n");
  };
  config.collector = &collector;
  config.max_requests = 10;
  auto client = std::make_shared<ClientNode>(config);
  network.AddNode("client", client, {"alpha", 2});

  kernel.RunUntil(Seconds(10));
  EXPECT_EQ(client->stats().sent, 10u);
  EXPECT_EQ(client->stats().allocations, 10u);
  EXPECT_EQ(pool->releases, 10);  // zero job duration: release immediately
  EXPECT_EQ(collector.completed(), 10u);
  // Response time at least the 5ms service.
  EXPECT_GE(collector.response_stats().min(), 0.005);
}

TEST(ClientNode, JobDurationHoldsMachine) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 10);
  network.AddHost("alpha", 4);
  auto pool = std::make_shared<ScriptedPool>(Millis(1));
  network.AddNode("pool", pool, {"alpha", 1});

  ResponseCollector collector;
  ClientConfig config;
  config.client_id = 1;
  config.entry = "pool";
  config.make_query = [](Rng&) {
    return std::string("punch.rsrc.cluster = c0\n");
  };
  config.collector = &collector;
  config.max_requests = 3;
  config.job_duration = [](Rng&) { return Seconds(2); };
  auto client = std::make_shared<ClientNode>(config);
  network.AddNode("client", client, {"alpha", 2});

  kernel.RunUntil(Seconds(1));
  EXPECT_EQ(pool->queries, 1);
  EXPECT_EQ(pool->releases, 0);  // job still "running"
  kernel.RunUntil(Seconds(3));
  EXPECT_EQ(pool->releases, 1);  // released after the 2s job
  kernel.RunUntil(Seconds(20));
  EXPECT_EQ(pool->releases, 3);
}

TEST(ClientNode, ThinkTimePacesRequests) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 10);
  network.AddHost("alpha", 4);
  auto pool = std::make_shared<ScriptedPool>(Millis(1));
  network.AddNode("pool", pool, {"alpha", 1});

  ClientConfig config;
  config.client_id = 1;
  config.entry = "pool";
  config.make_query = [](Rng&) {
    return std::string("punch.rsrc.cluster = c0\n");
  };
  config.think_time = Seconds(1);
  auto client = std::make_shared<ClientNode>(config);
  network.AddNode("client", client, {"alpha", 2});

  kernel.RunUntil(Seconds(5));
  // Roughly one request per second of think time.
  EXPECT_LE(client->stats().sent, 6u);
  EXPECT_GE(client->stats().sent, 4u);
}

TEST(ClientNode, RequestTimeoutRecoversFromSilence) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 10);
  network.AddHost("alpha", 4);

  // A pool that never answers.
  class BlackHole final : public net::Node {
   public:
    void OnMessage(const net::Envelope&, net::NodeContext&) override {}
  };
  network.AddNode("pool", std::make_shared<BlackHole>(), {"alpha", 1});

  ResponseCollector collector;
  ClientConfig config;
  config.client_id = 1;
  config.entry = "pool";
  config.make_query = [](Rng&) {
    return std::string("punch.rsrc.cluster = c0\n");
  };
  config.collector = &collector;
  config.request_timeout = Seconds(1);
  auto client = std::make_shared<ClientNode>(config);
  network.AddNode("client", client, {"alpha", 2});

  kernel.RunUntil(Seconds(10));
  // Without the timeout the client would wedge after one query; with it
  // the loop keeps issuing ~1 query per second.
  EXPECT_GE(client->stats().sent, 8u);
  EXPECT_GE(collector.failures(), 8u);
}

TEST(ClientNode, TimeoutIgnoredWhenReplyArrivesFirst) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 10);
  network.AddHost("alpha", 4);
  auto pool = std::make_shared<ScriptedPool>(Millis(5));
  network.AddNode("pool", pool, {"alpha", 1});

  ResponseCollector collector;
  ClientConfig config;
  config.client_id = 1;
  config.entry = "pool";
  config.make_query = [](Rng&) {
    return std::string("punch.rsrc.cluster = c0\n");
  };
  config.collector = &collector;
  config.request_timeout = Seconds(5);
  config.max_requests = 10;
  auto client = std::make_shared<ClientNode>(config);
  network.AddNode("client", client, {"alpha", 2});

  kernel.RunUntil(Seconds(60));
  // Replies beat the timeout every time: no spurious failures.
  EXPECT_EQ(collector.completed(), 10u);
  EXPECT_EQ(collector.failures(), 0u);
}

TEST(ClientNode, FailureCountsAndContinues) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 10);
  network.AddHost("alpha", 4);

  class FailingPool final : public net::Node {
   public:
    void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
      if (env.message.type != net::msg::kQuery) return;
      std::uint64_t rid = 0;
      if (auto r = ParseInt(env.message.Header(net::hdr::kRequestId))) {
        rid = static_cast<std::uint64_t>(*r);
      }
      ctx.Send(env.message.Header(net::hdr::kReplyTo),
               pipeline::MakeFailureMessage(rid, "nope"));
    }
  };
  network.AddNode("pool", std::make_shared<FailingPool>(), {"alpha", 1});

  ResponseCollector collector;
  ClientConfig config;
  config.client_id = 1;
  config.entry = "pool";
  config.make_query = [](Rng&) {
    return std::string("punch.rsrc.cluster = c0\n");
  };
  config.collector = &collector;
  config.max_requests = 5;
  auto client = std::make_shared<ClientNode>(config);
  network.AddNode("client", client, {"alpha", 2});

  kernel.RunUntil(Seconds(5));
  EXPECT_EQ(client->stats().sent, 5u);
  EXPECT_EQ(client->stats().failures, 5u);
  EXPECT_EQ(collector.failures(), 5u);
}

}  // namespace
}  // namespace actyp::workload
