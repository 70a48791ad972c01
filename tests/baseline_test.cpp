// Tests for the baseline schedulers: centralized, matchmaker, and the
// static-partition frontend.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "baseline/central.hpp"
#include "baseline/matchmaker.hpp"
#include "baseline/scan_cache.hpp"
#include "baseline/static_partition.hpp"
#include "common/rng.hpp"
#include "pipeline/protocol.hpp"
#include "pipeline/resource_pool.hpp"
#include "query/parser.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"

namespace actyp::baseline {
namespace {

class Probe final : public net::Node {
 public:
  void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
    messages.push_back(env.message);
    times.push_back(ctx.Now());
  }
  std::vector<net::Message> messages;
  std::vector<SimTime> times;
  [[nodiscard]] int count(std::string_view type) const {
    int n = 0;
    for (const auto& m : messages) n += (m.type == type);
    return n;
  }
};

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : network_(&kernel_, simnet::Topology::Lan(), 11) {
    network_.AddHost("alpha", 12);
    probe_ = std::make_shared<Probe>();
    network_.AddNode("probe", probe_, {"alpha", 2});
  }

  void AddMachines(int count, const std::string& arch) {
    for (int i = 0; i < count; ++i) {
      db::MachineRecord rec;
      rec.name = arch + std::to_string(next_id_++);
      rec.params["arch"] = arch;
      rec.dyn.available_memory_mb = 512;
      rec.execution_unit_port = 7000;
      ASSERT_TRUE(database_.Add(std::move(rec)).ok());
    }
  }

  net::Message QueryMessage(const std::string& body, std::uint64_t id = 1) {
    net::Message m{net::msg::kQuery};
    m.SetHeader(net::hdr::kReplyTo, "probe");
    m.SetHeader(net::hdr::kRequestId, std::to_string(id));
    m.body = body;
    return m;
  }

  simnet::SimKernel kernel_;
  simnet::SimNetwork network_;
  db::ResourceDatabase database_;
  std::shared_ptr<Probe> probe_;
  int next_id_ = 0;
};

// --- central scheduler ---

TEST_F(BaselineTest, CentralAllocatesLeastLoaded) {
  AddMachines(4, "sun");
  database_.Update(2, [](db::MachineRecord& r) { r.dyn.load = 0.0; });
  database_.Update(1, [](db::MachineRecord& r) { r.dyn.load = 2.0; });
  database_.Update(3, [](db::MachineRecord& r) { r.dyn.load = 2.0; });
  database_.Update(4, [](db::MachineRecord& r) { r.dyn.load = 2.0; });

  auto central =
      std::make_shared<CentralScheduler>(CentralSchedulerConfig{}, &database_);
  network_.AddNode("central", central, {"alpha", 1});

  network_.Post("probe", "central", QueryMessage("punch.rsrc.arch = sun\n"));
  kernel_.Run();
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(probe_->messages[0].Header(net::hdr::kMachine),
            database_.Get(2)->name);
  EXPECT_EQ(central->stats().allocations, 1u);
}

TEST_F(BaselineTest, CentralTracksItsOwnPlacements) {
  AddMachines(2, "sun");
  auto central =
      std::make_shared<CentralScheduler>(CentralSchedulerConfig{}, &database_);
  network_.AddNode("central", central, {"alpha", 1});

  network_.Post("probe", "central", QueryMessage("punch.rsrc.arch = sun\n", 1));
  network_.Post("probe", "central", QueryMessage("punch.rsrc.arch = sun\n", 2));
  kernel_.Run();
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 2);
  // Two placements spread over the two machines.
  EXPECT_NE(probe_->messages[0].Header(net::hdr::kMachine),
            probe_->messages[1].Header(net::hdr::kMachine));

  // Release one and verify the job count drains.
  auto allocation = pipeline::ParseAllocationMessage(probe_->messages[0]);
  ASSERT_TRUE(allocation.ok());
  network_.Post("probe", "central",
                pipeline::MakeReleaseMessage(allocation->machine_id,
                                             allocation->session_key));
  kernel_.Run();
  EXPECT_EQ(central->stats().releases, 1u);
}

TEST_F(BaselineTest, CentralFailsUnmatchable) {
  AddMachines(2, "sun");
  auto central =
      std::make_shared<CentralScheduler>(CentralSchedulerConfig{}, &database_);
  network_.AddNode("central", central, {"alpha", 1});
  network_.Post("probe", "central", QueryMessage("punch.rsrc.arch = vax\n"));
  network_.Post("probe", "central", QueryMessage("broken", 2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 2);
}

TEST_F(BaselineTest, CentralScanCostScalesWithDatabase) {
  AddMachines(1000, "sun");
  auto central =
      std::make_shared<CentralScheduler>(CentralSchedulerConfig{}, &database_);
  network_.AddNode("central", central, {"alpha", 1});
  network_.Post("probe", "central", QueryMessage("punch.rsrc.arch = sun\n"));
  kernel_.Run();
  const auto stats = network_.StatsFor("central");
  // 1000 machines x pool_per_machine (6us) plus translate overhead.
  EXPECT_GE(stats.busy_time, Micros(6000));
}

// --- matchmaker ---

TEST_F(BaselineTest, MatchmakerBatchesUntilCycle) {
  AddMachines(4, "sun");
  MatchmakerConfig config;
  config.cycle_period = Seconds(5);
  auto matchmaker = std::make_shared<Matchmaker>(config, &database_);
  network_.AddNode("mm", matchmaker, {"alpha", 1});

  network_.Post("probe", "mm", QueryMessage("punch.rsrc.arch = sun\n"));
  kernel_.RunUntil(Seconds(4));
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 0);  // still queued
  EXPECT_EQ(matchmaker->queue_depth(), 1u);

  kernel_.RunUntil(Seconds(6));
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
  // Reply arrives just after the 5s negotiation cycle.
  EXPECT_GE(probe_->times[0], Seconds(5));
  EXPECT_EQ(matchmaker->stats().cycles, 1u);
}

TEST_F(BaselineTest, MatchmakerServesWholeBatch) {
  AddMachines(8, "sun");
  MatchmakerConfig config;
  config.cycle_period = Seconds(2);
  auto matchmaker = std::make_shared<Matchmaker>(config, &database_);
  network_.AddNode("mm", matchmaker, {"alpha", 1});
  for (int i = 0; i < 5; ++i) {
    network_.Post("probe", "mm", QueryMessage("punch.rsrc.arch = sun\n", i));
  }
  kernel_.RunUntil(Seconds(3));
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 5);
  EXPECT_EQ(matchmaker->stats().matched, 5u);
}

TEST_F(BaselineTest, MatchmakerUnmatchedReported) {
  AddMachines(1, "sun");
  MatchmakerConfig config;
  config.cycle_period = Seconds(1);
  auto matchmaker = std::make_shared<Matchmaker>(config, &database_);
  network_.AddNode("mm", matchmaker, {"alpha", 1});
  network_.Post("probe", "mm", QueryMessage("punch.rsrc.arch = vax\n"));
  kernel_.RunUntil(Seconds(2));
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
  EXPECT_EQ(matchmaker->stats().unmatched, 1u);
}

// --- static partition frontend ---

TEST_F(BaselineTest, StaticFrontendRoutesByKey) {
  AddMachines(4, "sun");
  AddMachines(4, "hp");
  // Two static pools behind the frontend.
  db::ShadowAccountRegistry shadows;
  directory::DirectoryService dir;
  auto make_pool = [&](const std::string& text, const std::string& addr) {
    auto criteria = query::Parser::ParseBasic(text);
    pipeline::ResourcePoolConfig config;
    config.pool_name = criteria->PoolName();
    config.criteria = *criteria;
    config.resort_period = 0;
    auto pool = std::make_shared<pipeline::ResourcePool>(
        config, &database_, &dir, &shadows, nullptr);
    network_.AddNode(addr, pool, {"alpha", 1});
    return pool;
  };
  make_pool("punch.rsrc.arch = sun\n", "pool.sun");
  make_pool("punch.rsrc.arch = hp\n", "pool.hp");

  StaticPartitionConfig config;
  config.route_key = "arch";
  config.routes = {{"sun", "pool.sun"}, {"hp", "pool.hp"}};
  auto frontend = std::make_shared<StaticPartitionFrontend>(config);
  network_.AddNode("frontend", frontend, {"alpha", 1});

  network_.Post("probe", "frontend", QueryMessage("punch.rsrc.arch = hp\n", 1));
  network_.Post("probe", "frontend", QueryMessage("punch.rsrc.arch = sun\n", 2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 2);
  EXPECT_EQ(frontend->stats().routed, 2u);
}

TEST_F(BaselineTest, StaticFrontendFailsUnknownRoute) {
  StaticPartitionConfig config;
  config.route_key = "arch";
  config.routes = {{"sun", "pool.sun"}};
  auto frontend = std::make_shared<StaticPartitionFrontend>(config);
  network_.AddNode("frontend", frontend, {"alpha", 1});
  network_.Post("probe", "frontend", QueryMessage("punch.rsrc.arch = vax\n"));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
  EXPECT_EQ(frontend->stats().failures, 1u);
}

TEST_F(BaselineTest, StaticFrontendUsesFallback) {
  AddMachines(2, "sun");
  db::ShadowAccountRegistry shadows;
  directory::DirectoryService dir;
  auto criteria = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  pipeline::ResourcePoolConfig pool_config;
  pool_config.pool_name = criteria->PoolName();
  pool_config.criteria = *criteria;
  pool_config.resort_period = 0;
  network_.AddNode("pool.any",
                   std::make_shared<pipeline::ResourcePool>(
                       pool_config, &database_, &dir, &shadows, nullptr),
                   {"alpha", 1});

  StaticPartitionConfig config;
  config.route_key = "arch";
  config.fallback = "pool.any";
  auto frontend = std::make_shared<StaticPartitionFrontend>(config);
  network_.AddNode("frontend", frontend, {"alpha", 1});
  network_.Post("probe", "frontend", QueryMessage("punch.rsrc.arch = sun\n"));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
}

// --- journal-fed scan cache ---

TEST_F(BaselineTest, ScanCachePrimesThenRefreshesOnlyChurn) {
  AddMachines(50, "x86");
  ScanCache cache(&database_);

  // Priming sweep copies the whole fleet; a quiet database then costs
  // nothing per scan.
  EXPECT_EQ(cache.Refresh(), 50u);
  EXPECT_EQ(cache.Refresh(), 0u);
  EXPECT_EQ(cache.size(), 50u);

  // A single dynamic update refreshes exactly one mirror entry, and the
  // mirror reflects the new value.
  const auto record = database_.GetByName("x860");
  ASSERT_TRUE(record.ok());
  db::DynamicState dyn = record->dyn;
  dyn.load = 3.5;
  ASSERT_TRUE(database_.UpdateDynamic(record->id, dyn).ok());
  EXPECT_EQ(cache.Refresh(), 1u);
  bool seen = false;
  cache.ForEach([&](const db::MachineRecord& rec) {
    if (rec.id == record->id) {
      seen = true;
      EXPECT_DOUBLE_EQ(rec.dyn.load, 3.5);
    }
  });
  EXPECT_TRUE(seen);
  EXPECT_EQ(cache.entries_refreshed(), 51u);
}

TEST_F(BaselineTest, ScanCacheIteratesInAscendingIdOrder) {
  AddMachines(20, "sparc");
  ScanCache cache(&database_);
  cache.Refresh();

  // Same order the live database scans in — first-found-wins tie-breaks
  // (and so every allocation decision) are unchanged.
  std::vector<db::MachineId> cached;
  cache.ForEach(
      [&](const db::MachineRecord& rec) { cached.push_back(rec.id); });
  std::vector<db::MachineId> live;
  database_.VisitAll(
      [&](const db::MachineRecord& rec) { live.push_back(rec.id); });
  EXPECT_EQ(cached, live);
  EXPECT_TRUE(std::is_sorted(cached.begin(), cached.end()));
}

// Differential oracle: a cache kept current from the journal must equal
// a freshly primed one, record for record, after every kind of mutation.
TEST_F(BaselineTest, ScanCacheJournalRefreshMatchesFullSweep) {
  AddMachines(24, "sun");
  AddMachines(16, "hp");
  const auto sun = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  const auto hp = query::Parser::ParseBasic("punch.rsrc.arch = hp\n");
  ASSERT_TRUE(sun.ok());
  ASSERT_TRUE(hp.ok());
  using Row = std::tuple<std::string, std::string, std::uint64_t>;
  const auto rows = [](const ScanCache& cache) {
    std::vector<Row> out;
    cache.ForEach([&out](const db::MachineRecord& rec) {
      out.emplace_back(rec.Serialize(), rec.taken_by, rec.version);
    });
    return out;
  };

  const auto toggle_state = [](db::MachineRecord& rec) {
    rec.state = rec.state == db::MachineState::kUp ? db::MachineState::kDown
                                                   : db::MachineState::kUp;
  };

  ScanCache journal_fed(&database_);
  journal_fed.Refresh();
  Rng rng(2024);
  for (int step = 0; step < 300; ++step) {
    const auto id = static_cast<db::MachineId>(1 + rng.NextBounded(40));
    switch (rng.NextBounded(4)) {
      case 0: {
        db::DynamicState dyn;
        dyn.load = rng.Uniform(0, 3);
        dyn.active_jobs = static_cast<int>(rng.NextBounded(4));
        dyn.available_memory_mb = rng.Uniform(64, 1024);
        ASSERT_TRUE(database_.UpdateDynamic(id, dyn).ok());
        break;
      }
      case 1:
        ASSERT_TRUE(database_.Update(id, toggle_state).ok());
        break;
      case 2:
        database_.ClaimMatching(rng.NextBounded(2) == 0 ? *sun : *hp,
                                "pool" + std::to_string(rng.NextBounded(3)),
                                1 + rng.NextBounded(3));
        break;
      default: {
        const auto record = database_.Get(id);
        ASSERT_TRUE(record.ok());
        if (!record->taken_by.empty()) {
          ASSERT_TRUE(database_.Release(id, record->taken_by).ok());
        }
        break;
      }
    }
    // Only the records the step touched are refreshed.
    EXPECT_LE(journal_fed.Refresh(), 3u) << "step " << step;
    ScanCache primed(&database_);
    ASSERT_EQ(primed.Refresh(), 40u);
    ASSERT_EQ(rows(journal_fed), rows(primed)) << "step " << step;
  }
}

TEST_F(BaselineTest, CentralReportsRefreshWorkViaStats) {
  AddMachines(30, "x86");
  auto central = std::make_shared<CentralScheduler>(CentralSchedulerConfig{},
                                                    &database_);
  network_.AddNode("sched", central, {"alpha", 1});
  network_.Post("probe", "sched",
                QueryMessage("punch.rsrc.arch = x86\n", 1));
  network_.Post("probe", "sched",
                QueryMessage("punch.rsrc.arch = x86\n", 2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 2);
  // One priming sweep; the second query's refresh sees a quiet journal.
  EXPECT_EQ(central->stats().entries_refreshed, 30u);
}

}  // namespace
}  // namespace actyp::baseline
