// Tests for the baseline schedulers: centralized and matchmaker.
#include <gtest/gtest.h>

#include "baseline/central.hpp"
#include "baseline/matchmaker.hpp"
#include "pipeline/protocol.hpp"
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
      rec.params.Set("arch", arch);
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

}  // namespace
}  // namespace actyp::baseline
