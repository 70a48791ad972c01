// Tests for the PUNCH substrate: knowledge base, estimator, application
// manager (Fig. 2), VFS stub, user registry, and the network desktop's
// full Fig. 1 sequence against a simulated pipeline.
#include <gtest/gtest.h>

#include "actyp/scenario.hpp"
#include "punch/app_manager.hpp"
#include "punch/desktop.hpp"
#include "punch/estimator.hpp"
#include "punch/knowledge_base.hpp"
#include "punch/vfs.hpp"
#include "query/parser.hpp"

namespace actyp::punch {
namespace {

// --- knowledge base ---

TEST(KnowledgeBase, RegisterAndLookup) {
  KnowledgeBase kb;
  ToolSpec tool;
  tool.name = "mytool";
  AlgorithmSpec solo;
  solo.name = "solo";
  tool.algorithms.push_back(solo);
  ASSERT_TRUE(kb.RegisterTool(tool).ok());
  EXPECT_FALSE(kb.RegisterTool(tool).ok());
  EXPECT_TRUE(kb.Lookup("MyTool").ok());  // case-insensitive
  EXPECT_FALSE(kb.Lookup("other").ok());
}

TEST(KnowledgeBase, RejectsInvalidSpecs) {
  KnowledgeBase kb;
  EXPECT_FALSE(kb.RegisterTool(ToolSpec{}).ok());
  ToolSpec no_algo;
  no_algo.name = "x";
  EXPECT_FALSE(kb.RegisterTool(no_algo).ok());
}

TEST(KnowledgeBase, DemoHasPaperTool) {
  KnowledgeBase kb = KnowledgeBase::Demo();
  auto tool = kb.Lookup("tsuprem4");
  ASSERT_TRUE(tool.ok());
  EXPECT_EQ(tool->algorithms.size(), 3u);  // the Fig. 2 algorithm menu
  EXPECT_EQ(kb.ToolNames().size(), 3u);
}

// --- estimator ---

TEST(Estimator, PowerLawModel) {
  AlgorithmSpec algo;
  algo.name = "a";
  algo.cpu_base = 10;
  algo.cpu_coeff = 2;
  algo.cpu_exponents = {{"n", 2.0}};
  algo.memory_base_mb = 32;
  algo.memory_coeff = 0.5;
  algo.memory_param = "n";
  auto est = Estimator::Estimate(algo, {{"n", 10}});
  EXPECT_DOUBLE_EQ(est.cpu_units, 10 + 2 * 100);
  EXPECT_DOUBLE_EQ(est.memory_mb, 32 + 0.5 * 10);
}

TEST(Estimator, MissingParametersDefaultToOne) {
  AlgorithmSpec algo;
  algo.name = "a";
  algo.cpu_base = 5;
  algo.cpu_coeff = 3;
  algo.cpu_exponents = {{"missing", 2.0}};
  auto est = Estimator::Estimate(algo, {});
  EXPECT_DOUBLE_EQ(est.cpu_units, 8);
}

TEST(Estimator, SelectsMostAccurateWithoutBudget) {
  KnowledgeBase kb = KnowledgeBase::Demo();
  auto tool = kb.Lookup("tsuprem4");
  auto est = Estimator::SelectAlgorithm(*tool, {{"nodes", 1000}});
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->algorithm, "monte-carlo");  // accuracy 3.0
}

TEST(Estimator, BudgetForcesCheaperAlgorithm) {
  KnowledgeBase kb = KnowledgeBase::Demo();
  auto tool = kb.Lookup("tsuprem4");
  const auto expensive =
      Estimator::SelectAlgorithm(*tool, {{"nodes", 1e6}, {"carriers", 1e6}});
  ASSERT_TRUE(expensive.ok());
  auto budgeted = Estimator::SelectAlgorithm(
      *tool, {{"nodes", 1e6}, {"carriers", 1e6}},
      expensive->cpu_units * 0.5);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_NE(budgeted->algorithm, expensive->algorithm);
  EXPECT_LT(budgeted->cpu_units, expensive->cpu_units);
}

TEST(Estimator, ImpossibleBudgetFails) {
  KnowledgeBase kb = KnowledgeBase::Demo();
  auto tool = kb.Lookup("tsuprem4");
  EXPECT_FALSE(Estimator::SelectAlgorithm(*tool, {{"nodes", 1e6}}, 0.001).ok());
}

// --- application manager (Fig. 2) ---

TEST(ApplicationManager, ExtractParameters) {
  const auto params = ApplicationManager::ExtractParameters(
      "# device spec\n"
      "nodes = 5000\n"
      "carriers = 2e4\n"
      "label = fancy   # non-numeric, ignored\n"
      "norm=1e-6\n");
  EXPECT_EQ(params.size(), 3u);
  EXPECT_DOUBLE_EQ(params.at("nodes"), 5000);
  EXPECT_DOUBLE_EQ(params.at("carriers"), 2e4);
  EXPECT_DOUBLE_EQ(params.at("norm"), 1e-6);
}

TEST(ApplicationManager, ComposesCompleteQuery) {
  KnowledgeBase kb = KnowledgeBase::Demo();
  ApplicationManager manager(&kb);
  RunRequest request;
  request.tool = "tsuprem4";
  request.input_deck = "nodes = 5000\ncarriers = 10000\n";
  request.user_login = "kapadia";
  request.access_group = "ece";
  request.domain = "purdue";

  auto run = manager.Compose(request);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const query::Query& q = run->query;
  EXPECT_TRUE(q.GetRsrc("memory").has_value());
  EXPECT_EQ(q.GetRsrc("memory")->op, query::CmpOp::kGe);
  EXPECT_EQ(q.GetRsrc("license")->value.text(), "tsuprem4");
  EXPECT_EQ(q.GetRsrc("domain")->value.text(), "purdue");
  EXPECT_EQ(q.GetUser("login"), "kapadia");
  EXPECT_FALSE(q.GetAppl("expectedcpuuse").empty());
  EXPECT_EQ(q.GetAppl("algorithm"), run->estimate.algorithm);

  // The arch term is an or-clause over supported architectures that
  // decomposes when the serialized query is parsed.
  auto composite = query::Parser::Parse(q.ToText());
  ASSERT_TRUE(composite.ok()) << composite.status().ToString();
  EXPECT_EQ(composite->size(), 2u);  // tsuprem4 runs on sun and hp
}

TEST(ApplicationManager, UnknownToolFails) {
  KnowledgeBase kb = KnowledgeBase::Demo();
  ApplicationManager manager(&kb);
  RunRequest request;
  request.tool = "doom";
  EXPECT_FALSE(manager.Compose(request).ok());
}

// --- vfs ---

TEST(Vfs, MountUnmountLifecycle) {
  VirtualFileSystem vfs;
  auto mount = vfs.Mount("sess-1", "m0", "apps/spice3");
  ASSERT_TRUE(mount.ok());
  EXPECT_EQ(mount->machine, "m0");
  EXPECT_NE(mount->mount_point.find("apps/spice3"), std::string::npos);
  EXPECT_FALSE(vfs.Mount("sess-1", "m0", "apps/spice3").ok());  // dup
  EXPECT_EQ(vfs.MountsFor("sess-1").size(), 1u);

  EXPECT_TRUE(vfs.Unmount("sess-1", "apps/spice3").ok());
  EXPECT_FALSE(vfs.Unmount("sess-1", "apps/spice3").ok());
  EXPECT_EQ(vfs.total_mounts(), 0u);
}

TEST(Vfs, SessionKeyIsCapability) {
  VirtualFileSystem vfs;
  EXPECT_FALSE(vfs.Mount("", "m0", "apps/x").ok());
  vfs.Mount("sess-1", "m0", "apps/x");
  EXPECT_FALSE(vfs.Unmount("sess-2", "apps/x").ok());
}

TEST(Vfs, UnmountSessionReleasesAll) {
  VirtualFileSystem vfs;
  vfs.Mount("sess-1", "m0", "apps/x");
  vfs.Mount("sess-1", "m0", "home/user");
  vfs.Mount("sess-2", "m1", "apps/y");
  EXPECT_EQ(vfs.UnmountSession("sess-1"), 2u);
  EXPECT_EQ(vfs.total_mounts(), 1u);
}

// --- user registry ---

TEST(UserRegistry, AuthAndAuthorization) {
  UserRegistry users;
  UserAccount account;
  account.login = "kapadia";
  account.access_group = "ece";
  account.allowed_tools = {"tsuprem4"};
  ASSERT_TRUE(users.AddUser(account).ok());
  EXPECT_FALSE(users.AddUser(account).ok());

  auto found = users.Authenticate("KAPADIA");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(users.MayRun(*found, "tsuprem4"));
  EXPECT_FALSE(users.MayRun(*found, "spice3"));
  EXPECT_FALSE(users.Authenticate("intruder").ok());

  UserAccount open;
  open.login = "prof";
  users.AddUser(open);
  EXPECT_TRUE(users.MayRun(*users.Authenticate("prof"), "anything"));
}

// --- network desktop end-to-end over the simulated pipeline ---

class DesktopEndToEnd : public ::testing::Test {
 protected:
  DesktopEndToEnd() {
    ScenarioConfig config;
    config.machines = 64;
    config.clusters = 1;
    config.clients = 0;
    config.precreate_pools = false;  // desktop queries create pools
    config.seed = 5;
    scenario_ = std::make_unique<SimScenario>(config);
    // Give the fleet the attributes the demo tools ask for. VisitAll
    // holds the lock, so collect the ids first and update afterwards.
    std::vector<db::MachineId> ids;
    scenario_->database().VisitAll(
        [&ids](const db::MachineRecord& rec) { ids.push_back(rec.id); });
    for (const db::MachineId id : ids) {
      scenario_->database().Update(id, [](db::MachineRecord& r) {
        r.params["license"] = "tsuprem4";
        r.params["domain"] = "purdue";
        r.params["arch"] = "sun";
        r.params["memory"] = "1024";
      });
    }

    kb_ = KnowledgeBase::Demo();
    UserAccount account;
    account.login = "kapadia";
    account.access_group = "ece";
    account.storage_provider = "warehouse";
    users_.AddUser(account);
  }

  // Synchronous submit: post the query into the sim network through a
  // probe node and run the kernel until the reply arrives.
  Result<pipeline::Allocation> Submit(const std::string& query_text) {
    struct Client final : net::Node {
      void OnMessage(const net::Envelope& env, net::NodeContext&) override {
        replies.push_back(env.message);
      }
      std::vector<net::Message> replies;
    };
    const std::string addr = "desktop" + std::to_string(++submit_seq_);
    auto client = std::make_shared<Client>();
    scenario_->network().AddNode(addr, client, {"clients", 1});

    net::Message m{net::msg::kQuery};
    m.SetHeader(net::hdr::kReplyTo, addr);
    m.SetHeader(net::hdr::kRequestId, std::to_string(submit_seq_));
    m.body = query_text;
    scenario_->network().Post(addr, "qm0", std::move(m));
    // The deployment has periodic timers (monitor, sweeps), so step until
    // the reply arrives rather than draining the queue.
    const SimTime deadline = scenario_->kernel().Now() + Seconds(120);
    while (client->replies.empty() &&
           scenario_->kernel().Now() < deadline &&
           scenario_->kernel().Step()) {
    }

    if (client->replies.empty()) return Unavailable("no reply");
    if (client->replies[0].type == net::msg::kFailure) {
      return Unavailable(client->replies[0].Header(net::hdr::kError));
    }
    return pipeline::ParseAllocationMessage(client->replies[0]);
  }

  std::unique_ptr<SimScenario> scenario_;
  KnowledgeBase kb_;
  UserRegistry users_;
  VirtualFileSystem vfs_;
  int submit_seq_ = 0;
};

TEST_F(DesktopEndToEnd, FullRunLifecycle) {
  std::vector<pipeline::Allocation> released;
  NetworkDesktop desktop(
      &kb_, &users_, &vfs_,
      [this](const std::string& text) { return Submit(text); },
      [&released](const pipeline::Allocation& a) { released.push_back(a); });

  RunRequest request;
  request.tool = "tsuprem4";
  request.input_deck = "nodes = 2000\ncarriers = 5000\n";
  request.user_login = "kapadia";
  request.domain = "purdue";

  auto outcome = desktop.StartRun(request);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->allocation.machine_name.empty());
  EXPECT_FALSE(outcome->allocation.session_key.empty());
  // Application disk + data disk from the storage provider.
  ASSERT_EQ(outcome->mounts.size(), 2u);
  EXPECT_NE(outcome->mounts[1].disk.find("warehouse/"), std::string::npos);
  EXPECT_EQ(vfs_.total_mounts(), 2u);

  ASSERT_TRUE(desktop.FinishRun(*outcome).ok());
  EXPECT_EQ(vfs_.total_mounts(), 0u);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].session_key, outcome->allocation.session_key);
}

TEST_F(DesktopEndToEnd, UnknownUserRejected) {
  NetworkDesktop desktop(&kb_, &users_, &vfs_,
                         [this](const std::string& text) { return Submit(text); },
                         {});
  RunRequest request;
  request.tool = "tsuprem4";
  request.user_login = "mallory";
  EXPECT_EQ(desktop.StartRun(request).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(DesktopEndToEnd, ToolAuthorizationEnforced) {
  UserAccount limited;
  limited.login = "student";
  limited.access_group = "ece";
  limited.allowed_tools = {"spice3"};
  users_.AddUser(limited);
  NetworkDesktop desktop(&kb_, &users_, &vfs_,
                         [this](const std::string& text) { return Submit(text); },
                         {});
  RunRequest request;
  request.tool = "tsuprem4";
  request.user_login = "student";
  EXPECT_EQ(desktop.StartRun(request).status().code(),
            StatusCode::kPermissionDenied);
}

}  // namespace
}  // namespace actyp::punch
