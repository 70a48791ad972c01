// Focused tests for the reintegration stage: fragment accounting,
// best-response aggregation, duplicate release, failure paths, and
// timeout sweeps.
#include <gtest/gtest.h>

#include "pipeline/protocol.hpp"
#include "pipeline/reintegrator.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"

namespace actyp::pipeline {
namespace {

class Probe final : public net::Node {
 public:
  void OnMessage(const net::Envelope& env, net::NodeContext&) override {
    messages.push_back(env.message);
  }
  std::vector<net::Message> messages;
  [[nodiscard]] int count(std::string_view type) const {
    int n = 0;
    for (const auto& m : messages) n += (m.type == type);
    return n;
  }
};

class ReintegratorTest : public ::testing::Test {
 protected:
  ReintegratorTest() : network_(&kernel_, simnet::Topology::Lan(), 3) {
    network_.AddHost("alpha", 4);
    client_ = std::make_shared<Probe>();
    pool_ = std::make_shared<Probe>();
    network_.AddNode("client", client_, {"alpha", 1});
    network_.AddNode("pool", pool_, {"alpha", 1});
  }

  void AddReintegrator(SimDuration timeout = Seconds(30),
                       SimDuration sweep = Seconds(10)) {
    ReintegratorConfig config;
    config.name = "reint";
    config.request_timeout = timeout;
    config.sweep_period = sweep;
    reint_ = std::make_shared<Reintegrator>(config);
    network_.AddNode("reint", reint_, {"alpha", 1});
  }

  // Builds a fragment allocation result as a pool would send it.
  net::Message FragmentAllocation(std::uint64_t request_id,
                                  std::uint32_t index, std::uint32_t total,
                                  double load,
                                  const std::string& machine) {
    Allocation allocation;
    allocation.machine_name = machine;
    allocation.machine_id = 1;
    allocation.session_key = "sess-" + machine;
    allocation.pool_name = "p";
    allocation.pool_address = "pool";
    allocation.machine_load = load;
    allocation.request_id = request_id;
    allocation.fragment_index = index;
    allocation.fragment_total = total;
    net::Message m = MakeAllocationMessage(allocation);
    m.SetHeader(phdr::kFinalReplyTo, "client");
    return m;
  }

  net::Message FragmentFailure(std::uint64_t request_id, std::uint32_t index,
                               std::uint32_t total) {
    net::Message m = MakeFailureMessage(request_id, "no machine", index, total);
    m.SetHeader(phdr::kFinalReplyTo, "client");
    return m;
  }

  simnet::SimKernel kernel_;
  simnet::SimNetwork network_;
  std::shared_ptr<Probe> client_;
  std::shared_ptr<Probe> pool_;
  std::shared_ptr<Reintegrator> reint_;
};

TEST_F(ReintegratorTest, BestResponseWaitsForAllFragments) {
  AddReintegrator();
  network_.Post("pool", "reint", FragmentAllocation(1, 0, 2, 3.0, "heavy"));
  kernel_.RunUntil(Millis(500));
  // Only one of two fragments: nothing forwarded yet.
  EXPECT_EQ(client_->count(net::msg::kAllocation), 0);
  EXPECT_EQ(reint_->open_requests(), 1u);

  network_.Post("pool", "reint", FragmentAllocation(1, 1, 2, 0.5, "light"));
  kernel_.RunUntil(Seconds(1));
  ASSERT_EQ(client_->count(net::msg::kAllocation), 1);
  // Lowest load wins; the loser's machine is released back to its pool.
  EXPECT_EQ(client_->messages[0].Header(net::hdr::kMachine), "light");
  EXPECT_EQ(pool_->count(net::msg::kRelease), 1);
  EXPECT_EQ(reint_->open_requests(), 0u);
}

// Best response is the only mode: a fragment that carries the retired
// first-match header is aggregated like any other.
TEST_F(ReintegratorTest, FirstMatchHeaderStillAggregatesBestResponse) {
  AddReintegrator();
  auto with_header = [](net::Message m) {
    m.SetHeader("qos-first-match", "1");
    return m;
  };
  network_.Post("pool", "reint",
                with_header(FragmentAllocation(2, 0, 3, 2.0, "first")));
  kernel_.RunUntil(Seconds(1));
  EXPECT_EQ(client_->count(net::msg::kAllocation), 0);
  EXPECT_EQ(reint_->open_requests(), 1u);

  network_.Post("pool", "reint",
                with_header(FragmentAllocation(2, 1, 3, 0.1, "better")));
  kernel_.RunUntil(Seconds(2));
  EXPECT_EQ(client_->count(net::msg::kAllocation), 0);

  network_.Post("pool", "reint", FragmentFailure(2, 2, 3));
  kernel_.RunUntil(Seconds(3));
  ASSERT_EQ(client_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(client_->messages[0].Header(net::hdr::kMachine), "better");
  EXPECT_EQ(pool_->count(net::msg::kRelease), 1);  // "first" goes back
  EXPECT_EQ(reint_->open_requests(), 0u);
  EXPECT_EQ(reint_->stats().completed, 1u);
}

TEST_F(ReintegratorTest, AllFragmentsFailedYieldsFailure) {
  AddReintegrator();
  network_.Post("pool", "reint", FragmentFailure(3, 0, 2));
  network_.Post("pool", "reint", FragmentFailure(3, 1, 2));
  kernel_.RunUntil(Seconds(1));
  EXPECT_EQ(client_->count(net::msg::kFailure), 1);
  EXPECT_EQ(client_->count(net::msg::kAllocation), 0);
  EXPECT_EQ(reint_->stats().failed, 1u);
}

TEST_F(ReintegratorTest, MixedResultsPreferAllocation) {
  AddReintegrator();
  network_.Post("pool", "reint", FragmentFailure(4, 0, 2));
  network_.Post("pool", "reint", FragmentAllocation(4, 1, 2, 1.0, "only"));
  kernel_.RunUntil(Seconds(1));
  ASSERT_EQ(client_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(client_->messages[0].Header(net::hdr::kMachine), "only");
  EXPECT_EQ(client_->count(net::msg::kFailure), 0);
}

TEST_F(ReintegratorTest, SingleFragmentPassesThrough) {
  AddReintegrator();
  network_.Post("pool", "reint", FragmentAllocation(5, 0, 1, 1.0, "solo"));
  kernel_.RunUntil(Seconds(1));
  EXPECT_EQ(client_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(pool_->count(net::msg::kRelease), 0);
}

TEST_F(ReintegratorTest, TimeoutSweepsStaleRequests) {
  AddReintegrator(Seconds(5), Seconds(2));
  network_.Post("pool", "reint", FragmentAllocation(6, 0, 2, 1.0, "m"));
  kernel_.RunUntil(Seconds(1));
  EXPECT_EQ(reint_->open_requests(), 1u);

  kernel_.RunUntil(Seconds(12));
  EXPECT_EQ(reint_->open_requests(), 0u);
  EXPECT_EQ(reint_->stats().timed_out, 1u);
  EXPECT_EQ(client_->count(net::msg::kFailure), 1);
}

TEST_F(ReintegratorTest, IndependentRequestsDoNotInterfere) {
  AddReintegrator();
  network_.Post("pool", "reint", FragmentAllocation(7, 0, 2, 1.0, "a7"));
  network_.Post("pool", "reint", FragmentAllocation(8, 0, 2, 1.0, "a8"));
  kernel_.RunUntil(Seconds(1));
  EXPECT_EQ(reint_->open_requests(), 2u);
  network_.Post("pool", "reint", FragmentAllocation(7, 1, 2, 5.0, "b7"));
  network_.Post("pool", "reint", FragmentAllocation(8, 1, 2, 0.1, "b8"));
  kernel_.RunUntil(Seconds(2));
  ASSERT_EQ(client_->count(net::msg::kAllocation), 2);
  std::set<std::string> winners;
  for (const auto& m : client_->messages) {
    winners.insert(m.Header(net::hdr::kMachine));
  }
  EXPECT_EQ(winners, (std::set<std::string>{"a7", "b8"}));
}

}  // namespace
}  // namespace actyp::pipeline
