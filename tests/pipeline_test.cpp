// Integration tests for the resource management pipeline stages on the
// discrete-event substrate: resource pools (claiming, one machine per
// query, release, access control, oversubscription, re-sort, the heap
// budget of a query), pool managers (mapping, instance selection,
// creation via proxy, delegation with TTL), and query managers (routing
// rules, decomposition, the plan memo against a fresh manager, the heap
// budget of a query).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <set>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "db/database.hpp"
#include "db/policy.hpp"
#include "db/shadow.hpp"
#include "directory/directory.hpp"
#include "monitor/monitor.hpp"
#include "pipeline/pool_manager.hpp"
#include "pipeline/proxy.hpp"
#include "pipeline/query_manager.hpp"
#include "pipeline/reintegrator.hpp"
#include "pipeline/resource_pool.hpp"
#include "query/parser.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"

// The *AllocationBudget tests count heap allocations through a replaced
// global operator new, which only sees every allocation where no
// sanitizer replaces the allocator.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ACTYP_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ACTYP_COUNT_ALLOCATIONS 0
#endif
#endif
#if !defined(ACTYP_COUNT_ALLOCATIONS)
#define ACTYP_COUNT_ALLOCATIONS 1
#endif

#if ACTYP_COUNT_ALLOCATIONS
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Array and nothrow forms forward to this one in libstdc++. The deletes
// stay out of line: inlined, GCC would see free() on new'd pointers.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace actyp::pipeline {
namespace {

// Captures everything sent to it; used as the "client".
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
  [[nodiscard]] const net::Message* last(std::string_view type) const {
    for (auto it = messages.rbegin(); it != messages.rend(); ++it) {
      if (it->type == type) return &*it;
    }
    return nullptr;
  }
};

// Shared fixture: a sim network, a white-pages database, and helpers.
class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : network_(&kernel_, simnet::Topology::Lan(), /*seed=*/7) {
    network_.AddHost("alpha", 12);
    probe_ = std::make_shared<Probe>();
    network_.AddNode("probe", probe_, {"alpha", 4});
  }

  void AddMachines(int count, const std::string& arch = "sun",
                   const std::vector<std::string>& user_groups = {}) {
    for (int i = 0; i < count; ++i) {
      db::MachineRecord rec;
      rec.name = arch + std::to_string(next_machine_++);
      rec.params.Set("arch", arch);
      rec.dyn.available_memory_mb = 512;
      rec.effective_speed = 1.0;
      for (const auto& group : user_groups) {
        rec.user_groups.push_back(Intern(group));
      }
      rec.execution_unit_port = 7000;
      rec.shadow_pool = Intern("shadow." + arch);
      shadows_.GetOrCreate(rec.shadow_pool, 9000, 64);
      ASSERT_TRUE(database_.Add(std::move(rec)).ok());
    }
  }

  std::shared_ptr<ResourcePool> MakePool(
      const std::string& criteria_text,
      const std::function<void(ResourcePoolConfig&)>& tweak = {}) {
    auto criteria = query::Parser::ParseBasic(criteria_text);
    EXPECT_TRUE(criteria.ok());
    ResourcePoolConfig config;
    config.criteria = *criteria;
    config.pool_name = criteria->PoolName();
    config.resort_period = 0;  // tests drive ticks explicitly
    if (tweak) tweak(config);
    auto pool = std::make_shared<ResourcePool>(config, &database_, &directory_,
                                               &shadows_, &policies_);
    return pool;
  }

  // A query as a client sends it to a query manager: no sched hints.
  net::Message ClientMessage(const std::string& body,
                             std::uint64_t request_id = 1) {
    net::Message m{net::msg::kQuery};
    m.SetHeader(net::hdr::kReplyTo, "probe");
    m.SetHeader(net::hdr::kRequestId, std::to_string(request_id));
    m.body = body;
    return m;
  }

  // A query as the entry stage forwards it: stamped with the sched
  // hints of its body, when that parses as a basic query.
  net::Message QueryMessage(const std::string& body,
                            std::uint64_t request_id = 1) {
    net::Message m = ClientMessage(body, request_id);
    if (auto q = query::Parser::ParseBasic(body); q.ok()) {
      StampSchedHints(*q, &m);
    }
    return m;
  }

  simnet::SimKernel kernel_;
  simnet::SimNetwork network_;
  db::ResourceDatabase database_;
  db::ShadowAccountRegistry shadows_;
  db::PolicyRegistry policies_;
  directory::DirectoryService directory_;
  std::shared_ptr<Probe> probe_;
  int next_machine_ = 0;
};

constexpr const char* kSunQuery =
    "punch.rsrc.arch = sun\npunch.user.accessgroup = ece\n";

// --- resource pool ---

TEST_F(PipelineTest, PoolClaimsAndRegistersOnStart) {
  AddMachines(10, "sun");
  AddMachines(5, "hp");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  EXPECT_EQ(pool->cache_size(), 10u);
  EXPECT_EQ(database_.free_count(), 5u);  // hp machines remain free
  auto instances = directory_.Lookup(pool->config().pool_name);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].address, "pool0");
  EXPECT_EQ(instances[0].machine_count, 10u);
}

TEST_F(PipelineTest, PoolAllocatesAndReleases) {
  AddMachines(4, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0", QueryMessage(kSunQuery));
  kernel_.Run();

  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  auto allocation = ParseAllocationMessage(*probe_->last(net::msg::kAllocation));
  ASSERT_TRUE(allocation.ok());
  EXPECT_FALSE(allocation->machine_name.empty());
  EXPECT_FALSE(allocation->session_key.empty());
  EXPECT_EQ(allocation->port, 7000);
  EXPECT_GT(allocation->shadow_uid, 0u);
  EXPECT_EQ(allocation->pool_address, "pool0");
  EXPECT_EQ(allocation->request_id, 1u);
  EXPECT_EQ(pool->stats().allocations, 1u);

  // Release and verify the pool's bookkeeping drains.
  network_.Post("probe", "pool0",
                MakeReleaseMessage(allocation->machine_id,
                                   allocation->session_key));
  kernel_.Run();
  EXPECT_EQ(pool->stats().releases, 1u);
}

TEST_F(PipelineTest, PoolSpreadsLoadAcrossMachines) {
  AddMachines(4, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  for (int i = 0; i < 4; ++i) {
    network_.Post("probe", "pool0", QueryMessage(kSunQuery, 100 + i));
  }
  kernel_.Run();
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 4);
  std::set<std::string> machines;
  for (const auto& m : probe_->messages) {
    if (m.type == net::msg::kAllocation) {
      machines.insert(m.Header(net::hdr::kMachine));
    }
  }
  // Least-load spreads the four jobs over the four idle machines.
  EXPECT_EQ(machines.size(), 4u);
}

TEST_F(PipelineTest, PoolOversubscribesWhenSaturated) {
  AddMachines(2, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  for (int i = 0; i < 5; ++i) {
    network_.Post("probe", "pool0", QueryMessage(kSunQuery, 100 + i));
  }
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 5);
  EXPECT_GT(pool->stats().oversubscribed, 0u);
}

TEST_F(PipelineTest, PoolFailsWhenOversubscriptionDisabled) {
  AddMachines(1, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.allow_oversubscribe = false;
                       });
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0", QueryMessage(kSunQuery, 1));
  network_.Post("probe", "pool0", QueryMessage(kSunQuery, 2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
}

TEST_F(PipelineTest, PoolEnforcesUserGroups) {
  AddMachines(3, "sun", {"faculty"});
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.user.accessgroup = student\n"));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.user.accessgroup = faculty\n",
                             2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
}

TEST_F(PipelineTest, PoolEnforcesUsagePolicy) {
  ASSERT_TRUE(
      policies_.Register("public-load", "deny public if load >= 0.5; allow")
          .ok());
  AddMachines(1, "sun");
  database_.Update(1, [](db::MachineRecord& rec) {
    rec.usage_policy = Intern("public-load");
    rec.dyn.load = 0.9;
  });
  auto pool = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.allow_oversubscribe = false;
                       });
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.user.accessgroup = public\n"));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.user.accessgroup = ece\n",
                             2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
}

// A pool evaluates usage policies against the machine's own record
// (admin params included) under its cached load, not against a record
// that holds only the load figures.
TEST_F(PipelineTest, PoolUsagePolicySeesAdminParams) {
  ASSERT_TRUE(
      policies_.Register("no-public-suns", "deny public if arch == sun; allow")
          .ok());
  AddMachines(1, "sun");
  database_.Update(1, [](db::MachineRecord& rec) {
    rec.usage_policy = Intern("no-public-suns");
  });
  ASSERT_FALSE(policies_.Allows(*database_.Get(1), "public"));
  auto pool = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.allow_oversubscribe = false;
                       });
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.user.accessgroup = public\n"));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 0);

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.user.accessgroup = ece\n",
                             2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
}

TEST_F(PipelineTest, ReplicasShareMachineSet) {
  AddMachines(8, "sun");
  auto pool0 = MakePool("punch.rsrc.arch = sun\n",
                        [](ResourcePoolConfig& c) {
                          c.instance = 0;
                          c.instance_count = 2;
                        });
  auto pool1 = MakePool("punch.rsrc.arch = sun\n",
                        [](ResourcePoolConfig& c) {
                          c.instance = 1;
                          c.instance_count = 2;
                        });
  network_.AddNode("pool0", pool0, {"alpha", 1});
  network_.AddNode("pool1", pool1, {"alpha", 1});
  EXPECT_EQ(pool0->cache_size(), 8u);
  EXPECT_EQ(pool1->cache_size(), 8u);  // adopted, not re-claimed
  EXPECT_EQ(directory_.Lookup(pool0->config().pool_name).size(), 2u);

  // Replicas avoid picking the same machine thanks to the bias.
  network_.Post("probe", "pool0", QueryMessage(kSunQuery, 1));
  network_.Post("probe", "pool1", QueryMessage(kSunQuery, 2));
  kernel_.Run();
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 2);
  EXPECT_NE(probe_->messages[0].Header(net::hdr::kMachine),
            probe_->messages[1].Header(net::hdr::kMachine));
}

TEST_F(PipelineTest, PoolResortRefreshesFromDatabase) {
  AddMachines(3, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.resort_period = Seconds(1);
                       });
  network_.AddNode("pool0", pool, {"alpha", 1});

  // Bump machine 1's load in the white pages; after the tick the pool
  // must see it and avoid that machine.
  database_.Update(1, [](db::MachineRecord& rec) { rec.dyn.load = 5.0; });
  kernel_.RunUntil(Seconds(3));

  network_.Post("probe", "pool0", QueryMessage(kSunQuery));
  // The resort timer reschedules forever; run a bounded window instead of
  // draining the queue.
  kernel_.RunUntil(Seconds(5));
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_NE(probe_->last(net::msg::kAllocation)->Header(net::hdr::kMachine),
            database_.Get(1)->name);
}

// A linear-least-load pool selects through the index while its re-sort
// permutes the cache every tick: each pick must still be the least
// loaded free machine, charged as the paper's scan over the whole pool.
TEST_F(PipelineTest, LinearPoolPicksTheScanChoiceAcrossResorts) {
  constexpr int kMachines = 8;
  AddMachines(kMachines, "sun");
  std::map<std::string, double> base_load;
  for (db::MachineId id = 1; id <= kMachines; ++id) {
    const double load = 0.05 * static_cast<double>((id * 5) % kMachines);
    database_.Update(id, [&](db::MachineRecord& rec) { rec.dyn.load = load; });
    base_load[database_.Get(id)->name] = load;
  }
  auto pool = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.policy = "linear-least-load";
                         c.resort_period = Seconds(1);
                       });
  network_.AddNode("pool0", pool, {"alpha", 1});

  // Held machines sit at load >= 1, over their ceiling.
  std::set<std::string> free_machines;
  for (const auto& [name, load] : base_load) free_machines.insert(name);
  std::vector<Allocation> held;
  Allocation first;
  for (int step = 0; step < 12; ++step) {
    std::string expected;
    for (const std::string& name : free_machines) {
      if (expected.empty() || base_load[name] < base_load[expected]) {
        expected = name;
      }
    }
    network_.Post("probe", "pool0", QueryMessage(kSunQuery, 100 + step));
    kernel_.RunUntil(Seconds(0.6 * (step + 1)));
    auto allocation =
        ParseAllocationMessage(*probe_->last(net::msg::kAllocation));
    ASSERT_TRUE(allocation.ok());
    EXPECT_EQ(allocation->machine_name, expected) << "step " << step;
    free_machines.erase(allocation->machine_name);
    if (step == 0) first = *allocation;
    held.push_back(*allocation);
    if (step % 2 == 1) {
      network_.Post("probe", "pool0",
                    MakeReleaseMessage(held.front().machine_id,
                                       held.front().session_key));
      free_machines.insert(held.front().machine_name);
      held.erase(held.begin());
    }
  }
  EXPECT_GE(pool->stats().refresh_ticks, 5u);
  EXPECT_EQ(pool->stats().allocations, 12u);
  EXPECT_EQ(pool->stats().entries_examined, 12u * kMachines);

  // The session table followed every held entry through the re-sorts:
  // each release finds its machine and hands its shadow uid back.
  for (const Allocation& allocation : held) {
    network_.Post("probe", "pool0",
                  MakeReleaseMessage(allocation.machine_id,
                                     allocation.session_key));
  }
  kernel_.RunUntil(Seconds(8.0));
  EXPECT_EQ(pool->stats().releases, 12u);
  EXPECT_EQ(pool->active_sessions(), 0u);
  const db::ShadowAccountPool* accounts = shadows_.Find(Intern("shadow.sun"));
  ASSERT_NE(accounts, nullptr);
  EXPECT_EQ(accounts->free_count(), accounts->total());

  // The least-loaded machine is held again, by a new session; a replayed
  // release of the first session, which held the same machine, must not
  // free it.
  network_.Post("probe", "pool0", QueryMessage(kSunQuery, 200));
  kernel_.RunUntil(Seconds(8.6));
  auto again = ParseAllocationMessage(*probe_->last(net::msg::kAllocation));
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->machine_name, first.machine_name);
  network_.Post("probe", "pool0",
                MakeReleaseMessage(first.machine_id, first.session_key));
  kernel_.RunUntil(Seconds(9.2));
  EXPECT_EQ(pool->stats().releases, 12u);
  EXPECT_EQ(pool->active_sessions(), 1u);

  std::string expected;
  for (const auto& [name, load] : base_load) {
    if (name == first.machine_name) continue;
    if (expected.empty() || load < base_load[expected]) expected = name;
  }
  network_.Post("probe", "pool0", QueryMessage(kSunQuery, 201));
  kernel_.RunUntil(Seconds(9.8));
  auto next = ParseAllocationMessage(*probe_->last(net::msg::kAllocation));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->machine_name, expected);
}

TEST_F(PipelineTest, DownedMachineExcludedAfterRefresh) {
  AddMachines(3, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.resort_period = Seconds(1);
                         c.allow_oversubscribe = true;
                       });
  network_.AddNode("pool0", pool, {"alpha", 1});

  // Machine 2 dies; the next refresh tick must stop handing it out.
  database_.Update(2, [](db::MachineRecord& rec) {
    rec.state = db::MachineState::kDown;
  });
  kernel_.RunUntil(Seconds(3));

  const std::string downed = database_.Get(2)->name;
  for (int i = 0; i < 6; ++i) {
    network_.Post("probe", "pool0", QueryMessage(kSunQuery, 100 + i));
  }
  kernel_.RunUntil(Seconds(4));
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 6);
  for (const auto& m : probe_->messages) {
    if (m.type == net::msg::kAllocation) {
      EXPECT_NE(m.Header(net::hdr::kMachine), downed);
    }
  }
}

// A pool reads only the sched hints, never the body: a query that
// carries none fails, however well-formed its text.
TEST_F(PipelineTest, PoolFailsQueryWithoutSchedHints) {
  AddMachines(1, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});
  network_.Post("probe", "pool0", ClientMessage(kSunQuery));
  kernel_.Run();
  ASSERT_EQ(probe_->messages.size(), 1u);
  EXPECT_EQ(probe_->messages[0].type, net::msg::kFailure);
  EXPECT_EQ(probe_->messages[0].Header(net::hdr::kError), kNoSchedHints);
  EXPECT_EQ(pool->stats().allocations, 0u);
}

// A pool grants exactly one machine per query (§5.2.3). The count,
// start time and duration application terms are ordinary terms that
// selection ignores, like expectedcpuuse: no machine list, no booked
// window, one session.
TEST_F(PipelineTest, PoolGrantsOneMachineWhateverTheApplTerms) {
  AddMachines(6, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});
  kernel_.RunUntil(Seconds(60));  // past the start time the query names

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.appl.count = 3\n"
                             "punch.appl.starttime = 50\n"
                             "punch.appl.duration = 100\n"));
  kernel_.Run();
  ASSERT_EQ(probe_->messages.size(), 1u);
  const net::Message& reply = probe_->messages[0];
  ASSERT_EQ(reply.type, net::msg::kAllocation)
      << reply.Header(net::hdr::kError);
  for (const char* key : {"machines", "reserved-start", "reserved-end"}) {
    EXPECT_FALSE(reply.HasHeader(key)) << key;
  }
  EXPECT_EQ(pool->stats().allocations, 1u);
  EXPECT_EQ(pool->active_sessions(), 1u);
  const db::ShadowAccountPool* accounts = shadows_.Find(Intern("shadow.sun"));
  ASSERT_NE(accounts, nullptr);
  EXPECT_EQ(accounts->free_count(), accounts->total() - 1);
}

// Keeps the release coordinates of the last allocation it receives,
// reusing its buffers, so it adds no allocation of its own per reply.
class ReleaseCoordinates final : public net::Node {
 public:
  void OnMessage(const net::Envelope& env, net::NodeContext&) override {
    if (env.message.type != net::msg::kAllocation) return;
    session_key = *env.message.FindHeader(net::hdr::kSessionKey);
    machine_id = static_cast<db::MachineId>(
        ParseInt(*env.message.FindHeader(net::hdr::kMachineId)).value_or(0));
    ++allocations;
  }
  std::string session_key;
  db::MachineId machine_id = 0;
  int allocations = 0;
};

// A ratchet on the heap work of the pool's per-query path: allocations
// per warm query + release pair through a pool with shadow accounts,
// counting the pool, the network and this loop's own two messages.
// Measured with GCC 12 (Release): 17 per pair, with the session key
// reserved, the release's session looked up in place and the reply's
// header list sized once; without those the pool made 24, and with
// co-allocation, reservations and two session maps 29. The bound is 17
// plus 10%.
TEST_F(PipelineTest, PoolQueryAllocationBudget) {
#if !ACTYP_COUNT_ALLOCATIONS
  GTEST_SKIP() << "allocation counter unavailable (sanitizer build)";
#else
  constexpr int kWarmPairs = 100;
  constexpr int kPairs = 1000;
  constexpr double kBoundPerPair = 18.7;
  AddMachines(8, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});
  auto client = std::make_shared<ReleaseCoordinates>();
  network_.AddNode("client", client, {"alpha", 1});
  net::Message query = QueryMessage(kSunQuery);
  query.SetHeader(net::hdr::kReplyTo, "client");

  auto query_and_release = [&] {
    network_.Post("client", "pool0", query);
    kernel_.Run();
    network_.Post("client", "pool0",
                  MakeReleaseMessage(client->machine_id, client->session_key));
    kernel_.Run();
  };
  for (int i = 0; i < kWarmPairs; ++i) query_and_release();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kPairs; ++i) query_and_release();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  RecordProperty("allocations", static_cast<int>(after - before));
  const double per_pair = static_cast<double>(after - before) / kPairs;
  EXPECT_EQ(client->allocations, kWarmPairs + kPairs);
  EXPECT_EQ(pool->stats().releases,
            static_cast<std::uint64_t>(kWarmPairs + kPairs));
  EXPECT_EQ(pool->active_sessions(), 0u);
  EXPECT_LE(per_pair, kBoundPerPair)
      << "the pool's query path grew to " << per_pair
      << " allocations per query + release pair";
#endif
}

// The indexed policies must grant exactly the allocations the legacy
// linear scans grant on the same trace: same machines, same queries,
// same interleaved releases (re-sort off, so the cache order is fixed
// and the sched-level equivalence applies end to end).
TEST(PoolPolicyEquivalence, IndexedMatchesLinearOnSameTrace) {
  auto run = [](const std::string& policy_name) {
    simnet::SimKernel kernel;
    simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 7);
    network.AddHost("alpha", 12);
    db::ResourceDatabase database;
    db::ShadowAccountRegistry shadows;
    db::PolicyRegistry policies;
    directory::DirectoryService directory;
    auto probe = std::make_shared<Probe>();
    network.AddNode("probe", probe, {"alpha", 4});
    for (int i = 0; i < 24; ++i) {
      db::MachineRecord rec;
      rec.name = "sun" + std::to_string(i);
      rec.params.Set("arch", "sun");
      rec.dyn.load = 0.1 * static_cast<double>(i % 7);
      rec.dyn.available_memory_mb = 256 + 64 * (i % 5);
      rec.effective_speed = 1.0 + 0.5 * static_cast<double>(i % 3);
      EXPECT_TRUE(database.Add(std::move(rec)).ok());
    }
    auto criteria = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
    EXPECT_TRUE(criteria.ok());
    ResourcePoolConfig config;
    config.criteria = *criteria;
    config.pool_name = criteria->PoolName();
    config.resort_period = 0;
    config.policy = policy_name;
    auto pool = std::make_shared<ResourcePool>(config, &database, &directory,
                                               &shadows, &policies);
    network.AddNode("pool0", pool, {"alpha", 1});

    std::vector<std::string> order;
    std::vector<std::pair<db::MachineId, std::string>> held;
    std::uint64_t request_id = 1;
    for (int step = 0; step < 40; ++step) {
      net::Message query{net::msg::kQuery};
      query.SetHeader(net::hdr::kReplyTo, "probe");
      query.SetHeader(net::hdr::kRequestId, std::to_string(request_id++));
      StampSchedHints(*criteria, &query);
      query.body = "punch.rsrc.arch = sun\n";
      network.Post("probe", "pool0", std::move(query));
      kernel.Run();
      if (const auto* m = probe->last(net::msg::kAllocation)) {
        order.push_back(m->Header(net::hdr::kMachine));
        db::MachineId id = 0;
        if (auto parsed = ParseInt(m->Header(net::hdr::kMachineId))) {
          id = static_cast<db::MachineId>(*parsed);
        }
        held.emplace_back(id, m->Header(net::hdr::kSessionKey));
      }
      if (step % 3 == 2 && !held.empty()) {
        const auto [id, session] = held.front();
        held.erase(held.begin());
        network.Post("probe", "pool0", MakeReleaseMessage(id, session));
        kernel.Run();
      }
    }
    EXPECT_EQ(order.size(), 40u) << policy_name;
    return order;
  };

  EXPECT_EQ(run("least-load"), run("linear-least-load"));
  EXPECT_EQ(run("most-memory"), run("linear-most-memory"));
  EXPECT_EQ(run("fastest"), run("linear-fastest"));
}

// The dirty-id incremental refresh must leave the pool indistinguishable
// from the legacy full sweep: same allocations on the same randomized
// schedule of monitor sweeps, direct white-pages updates, machine
// down/up churn, and interleaved queries/releases — while re-reading
// only the records that actually changed.
TEST(PoolRefreshEquivalence, IncrementalMatchesFullSweepUnderChurn) {
  struct RunResult {
    std::vector<std::string> allocations;
    std::uint64_t entries_refreshed = 0;
    std::uint64_t refresh_ticks = 0;
  };
  auto run = [](bool incremental) {
    simnet::SimKernel kernel;
    simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 7);
    network.AddHost("alpha", 12);
    db::ResourceDatabase database;
    db::ShadowAccountRegistry shadows;
    db::PolicyRegistry policies;
    directory::DirectoryService directory;
    auto probe = std::make_shared<Probe>();
    network.AddNode("probe", probe, {"alpha", 4});
    std::vector<db::MachineId> ids;
    for (int i = 0; i < 30; ++i) {
      db::MachineRecord rec;
      rec.name = "sun" + std::to_string(i);
      rec.params.Set("arch", "sun");
      rec.dyn.load = 0.05 * static_cast<double>(i % 9);
      rec.dyn.available_memory_mb = 256;
      ids.push_back(*database.Add(std::move(rec)));
    }
    monitor::MonitorConfig mon_config;
    mon_config.update_period = Seconds(2);
    monitor::ResourceMonitor monitor(&database, mon_config, Rng(99));

    auto criteria = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
    EXPECT_TRUE(criteria.ok());
    ResourcePoolConfig config;
    config.criteria = *criteria;
    config.pool_name = criteria->PoolName();
    config.policy = "least-load";
    config.resort_period = Seconds(1);
    config.incremental_refresh = incremental;
    auto pool = std::make_shared<ResourcePool>(config, &database, &directory,
                                               &shadows, &policies);
    network.AddNode("pool0", pool, {"alpha", 1});

    Rng churn(4242);  // same schedule for both modes
    RunResult result;
    std::vector<std::pair<db::MachineId, std::string>> held;
    std::vector<db::MachineId> down;
    std::uint64_t request_id = 1;
    for (int step = 0; step < 60; ++step) {
      const SimTime now = Seconds(0.7 * (step + 1));
      // Random churn against the white pages: load nudges, machines
      // flipping down and back up, periodic monitor sweeps.
      if (churn.NextDouble() < 0.4) {
        const db::MachineId id =
            ids[churn.NextBounded(ids.size())];
        database.Update(id, [&churn](db::MachineRecord& rec) {
          rec.dyn.load = 2.0 * churn.NextDouble();
        });
      }
      if (churn.NextDouble() < 0.15) {
        const db::MachineId id = ids[churn.NextBounded(ids.size())];
        database.Update(id, [](db::MachineRecord& rec) {
          rec.state = db::MachineState::kDown;
        });
        down.push_back(id);
      }
      if (!down.empty() && churn.NextDouble() < 0.3) {
        database.Update(down.back(), [](db::MachineRecord& rec) {
          rec.state = db::MachineState::kUp;
        });
        down.pop_back();
      }
      if (step % 3 == 0) monitor.Step(now);

      net::Message query{net::msg::kQuery};
      query.SetHeader(net::hdr::kReplyTo, "probe");
      query.SetHeader(net::hdr::kRequestId, std::to_string(request_id++));
      StampSchedHints(*criteria, &query);
      query.body = "punch.rsrc.arch = sun\n";
      network.Post("probe", "pool0", std::move(query));
      kernel.RunUntil(now);
      if (const auto* m = probe->last(net::msg::kAllocation)) {
        result.allocations.push_back(m->Header(net::hdr::kMachine));
        db::MachineId id = 0;
        if (auto parsed = ParseInt(m->Header(net::hdr::kMachineId))) {
          id = static_cast<db::MachineId>(*parsed);
        }
        held.emplace_back(id, m->Header(net::hdr::kSessionKey));
      }
      if (held.size() > 4) {
        const auto [id, session] = held.front();
        held.erase(held.begin());
        network.Post("probe", "pool0", MakeReleaseMessage(id, session));
        kernel.RunUntil(now + Millis(100));
      }
    }
    result.entries_refreshed = pool->stats().entries_refreshed;
    result.refresh_ticks = pool->stats().refresh_ticks;
    return result;
  };

  const RunResult inc = run(true);
  const RunResult full = run(false);
  EXPECT_EQ(inc.allocations, full.allocations);
  EXPECT_GT(inc.allocations.size(), 30u);
  ASSERT_GT(full.refresh_ticks, 0u);
  // The full sweep re-reads the whole 30-entry cache every tick; the
  // dirty-id sweep re-reads only what changed.
  EXPECT_EQ(full.entries_refreshed, full.refresh_ticks * 30u);
  EXPECT_LT(inc.entries_refreshed, full.entries_refreshed / 2);
}

// A quiet fleet costs a quiet refresh: with no monitor sweeps and no
// white-pages writes, the dirty-id refresh touches zero entries no
// matter how many ticks elapse.
TEST(PoolRefreshEquivalence, QuietTicksRefreshNothing) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 7);
  network.AddHost("alpha", 12);
  db::ResourceDatabase database;
  directory::DirectoryService directory;
  for (int i = 0; i < 20; ++i) {
    db::MachineRecord rec;
    rec.name = "sun" + std::to_string(i);
    rec.params.Set("arch", "sun");
    database.Add(std::move(rec));
  }
  auto criteria = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  ASSERT_TRUE(criteria.ok());
  ResourcePoolConfig config;
  config.criteria = *criteria;
  config.pool_name = criteria->PoolName();
  config.policy = "least-load";
  config.resort_period = Seconds(1);
  auto pool = std::make_shared<ResourcePool>(config, &database, &directory,
                                             nullptr, nullptr);
  network.AddNode("pool0", pool, {"alpha", 1});
  kernel.RunUntil(Seconds(10));
  EXPECT_GE(pool->stats().refresh_ticks, 9u);
  EXPECT_EQ(pool->stats().entries_refreshed, 0u);
}

// --- pool manager ---

TEST_F(PipelineTest, PoolManagerForwardsToExistingPool) {
  AddMachines(4, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.allow_create = false;
  pm_config.allow_delegate = false;
  auto pm = std::make_shared<PoolManager>(pm_config, &directory_);
  network_.AddNode("pm0", pm, {"alpha", 1});

  network_.Post("probe", "pm0", QueryMessage(kSunQuery));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(pm->stats().forwarded, 1u);
}

// A pool manager routes by the sched hints alone: a query that carries
// none fails instead of reaching the pool its body names.
TEST_F(PipelineTest, PoolManagerFailsQueryWithoutSchedHints) {
  AddMachines(4, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  auto pm = std::make_shared<PoolManager>(pm_config, &directory_);
  network_.AddNode("pm0", pm, {"alpha", 1});

  network_.Post("probe", "pm0", ClientMessage(kSunQuery));
  kernel_.Run();
  ASSERT_EQ(probe_->messages.size(), 1u);
  EXPECT_EQ(probe_->messages[0].type, net::msg::kFailure);
  EXPECT_EQ(probe_->messages[0].Header(net::hdr::kError), kNoSchedHints);
  EXPECT_EQ(pm->stats().forwarded + pm->stats().delegated, 0u);
  EXPECT_EQ(pool->stats().queries, 0u);
}

TEST_F(PipelineTest, PoolManagerCreatesPoolThroughProxy) {
  AddMachines(6, "sun");

  ProxyConfig proxy_config;
  proxy_config.host = "alpha";
  proxy_config.pool_resort_period = 0;  // keep the event queue drainable
  auto proxy = std::make_shared<ProxyServer>(proxy_config, &network_,
                                             &database_, &directory_,
                                             &shadows_, &policies_);
  network_.AddNode("proxy", proxy, {"alpha", 1});

  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.proxies = {"proxy"};
  auto pm = std::make_shared<PoolManager>(pm_config, &directory_);
  network_.AddNode("pm0", pm, {"alpha", 1});

  network_.Post("probe", "pm0", QueryMessage(kSunQuery));
  kernel_.Run();

  // The pool was created on the fly, answered the query, and is now
  // registered for future queries.
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(proxy->stats().pools_created, 1u);
  EXPECT_EQ(directory_.pool_count(), 1u);

  // Second query hits the existing pool (no second creation).
  network_.Post("probe", "pm0", QueryMessage(kSunQuery, 2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 2);
  EXPECT_EQ(proxy->stats().pools_created, 1u);
}

TEST_F(PipelineTest, DistinctSignaturesCreateDistinctPools) {
  AddMachines(4, "sun");
  AddMachines(4, "hp");

  ProxyConfig proxy_config;
  proxy_config.host = "alpha";
  proxy_config.pool_resort_period = 0;  // keep the event queue drainable
  network_.AddNode("proxy",
                   std::make_shared<ProxyServer>(proxy_config, &network_,
                                                 &database_, &directory_,
                                                 &shadows_, &policies_),
                   {"alpha", 1});
  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.proxies = {"proxy"};
  network_.AddNode("pm0", std::make_shared<PoolManager>(pm_config, &directory_),
                   {"alpha", 1});

  network_.Post("probe", "pm0", QueryMessage("punch.rsrc.arch = sun\n", 1));
  network_.Post("probe", "pm0", QueryMessage("punch.rsrc.arch = hp\n", 2));
  network_.Post("probe", "pm0",
                QueryMessage("punch.rsrc.arch = sun\npunch.rsrc.memory = >=256\n", 3));
  kernel_.Run();
  // Three distinct pool names: arch==sun, arch==hp, arch+memory.
  EXPECT_EQ(directory_.PoolNames().size(), 3u);
  // The first two queries allocate. The third maps to a new pool whose
  // criteria overlap arch==sun — but those machines are already marked
  // taken, so its white-pages walk comes up empty and the query fails:
  // claims are exclusive (§5.2.3).
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 2);
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
}

TEST_F(PipelineTest, DelegationReachesPeerPoolManager) {
  AddMachines(4, "sun");
  // pm1 owns the pool; pm0 cannot create and must delegate to pm1.
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  PoolManagerConfig pm0_config;
  pm0_config.name = "pm0";
  pm0_config.allow_create = false;
  auto pm0 = std::make_shared<PoolManager>(pm0_config, &directory_);

  PoolManagerConfig pm1_config;
  pm1_config.name = "pm1";
  pm1_config.allow_create = false;
  auto pm1 = std::make_shared<PoolManager>(pm1_config, &directory_);

  network_.AddNode("pm0", pm0, {"alpha", 1});
  network_.AddNode("pm1", pm1, {"alpha", 1});

  // Make pm0 blind to the pool: use a second directory for it.
  // (Simpler: both share the directory here, so instead verify the
  // delegation path by sending a query that maps to a missing pool and
  // checking it bounces pm0 -> pm1 -> failure with both visited.)
  network_.Post("probe", "pm0",
                QueryMessage("punch.rsrc.arch = vax\n"));
  kernel_.Run();
  ASSERT_EQ(probe_->count(net::msg::kFailure), 1);
  EXPECT_EQ(pm0->stats().delegated + pm1->stats().delegated, 1u);
  const std::string error =
      probe_->last(net::msg::kFailure)->Header(net::hdr::kError);
  EXPECT_NE(error.find("no unvisited pool manager"), std::string::npos);
}

TEST_F(PipelineTest, TtlBoundsDelegationChain) {
  // Ring of pool managers, none able to create: the query's TTL must
  // stop the walk.
  for (int i = 0; i < 12; ++i) {
    PoolManagerConfig config;
    config.name = "pm" + std::to_string(i);
    config.allow_create = false;
    network_.AddNode(config.name,
                     std::make_shared<PoolManager>(config, &directory_),
                     {"alpha", 1});
  }
  net::Message m = QueryMessage("punch.rsrc.arch = vax\n", 9);
  m.SetHeader(phdr::kTtl, "3");
  network_.Post("probe", "pm0", std::move(m));
  kernel_.Run();

  ASSERT_EQ(probe_->count(net::msg::kFailure), 1);
  const std::string error =
      probe_->last(net::msg::kFailure)->Header(net::hdr::kError);
  EXPECT_NE(error.find("TTL expired"), std::string::npos);
}

// --- query manager ---

// Swallows whatever it is sent; stands in for a pool manager.
class Discard final : public net::Node {
 public:
  void OnMessage(const net::Envelope&, net::NodeContext&) override {}
};

// A ratchet on the heap work of the query manager's per-query path:
// allocations per warm client query through a QM that routes three
// texts over two pool managers, counting the QM, the network and this
// loop's own message. Measured with GCC 12 (Release): 9.67 per query,
// where the QM that parsed, routed and rendered the hints of every
// query made 28.67. The bound is 9.67 plus 10%.
TEST_F(PipelineTest, QueryManagerAllocationBudget) {
#if !ACTYP_COUNT_ALLOCATIONS
  GTEST_SKIP() << "allocation counter unavailable (sanitizer build)";
#else
  constexpr int kWarmQueries = 300;
  constexpr int kQueries = 3000;
  constexpr double kBoundPerQuery = 10.63;
  network_.AddNode("pm0", std::make_shared<Discard>(), {"alpha", 1});
  network_.AddNode("pm1", std::make_shared<Discard>(), {"alpha", 1});
  QueryManagerConfig config;
  config.name = "qm";
  config.default_pool_managers = {"pm0", "pm1"};
  auto qm = std::make_shared<QueryManager>(config);
  network_.AddNode("qm", qm, {"alpha", 1});
  std::vector<net::Message> queries;
  for (int c = 0; c < 3; ++c) {
    queries.push_back(ClientMessage("punch.rsrc.cluster = c" +
                                    std::to_string(c) +
                                    "\npunch.user.login = client\n"
                                    "punch.user.accessgroup = ece\n"));
  }

  auto send = [&](int i) {
    network_.Post("probe", "qm", queries[i % queries.size()]);
    kernel_.Run();
  };
  for (int i = 0; i < kWarmQueries; ++i) send(i);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kQueries; ++i) send(i);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  RecordProperty("allocations", static_cast<int>(after - before));
  const double per_query = static_cast<double>(after - before) / kQueries;
  EXPECT_EQ(qm->stats().fragments,
            static_cast<std::uint64_t>(kWarmQueries + kQueries));
  EXPECT_TRUE(probe_->messages.empty());
  EXPECT_LE(per_query, kBoundPerQuery)
      << "the query manager's path grew to " << per_query
      << " allocations per query";
#endif
}

// Drives one handler call directly: records every send and the service
// time consumed, and hands the node a chosen RNG state.
class RecordingContext final : public net::NodeContext {
 public:
  explicit RecordingContext(const Rng& rng) : rng_(rng) {}

  [[nodiscard]] SimTime Now() const override { return 0; }
  void Send(const net::Address& to, net::Message message) override {
    sends.emplace_back(to, std::move(message));
  }
  void Consume(SimDuration duration) override { consumed_ += duration; }
  [[nodiscard]] SimDuration Consumed() const override { return consumed_; }
  net::TimerId ScheduleSelf(SimDuration, net::Message) override {
    ADD_FAILURE() << "unexpected timer";
    return 0;
  }
  bool CancelSelf(net::TimerId) override { return false; }
  Rng& rng() override { return rng_; }
  [[nodiscard]] const net::Address& self() const override { return self_; }

  std::vector<std::pair<net::Address, net::Message>> sends;

 private:
  Rng rng_;
  SimDuration consumed_ = 0;
  net::Address self_ = "qm";
};

// The plan memo is host work only: a long-lived query manager, whose
// memo hits, must send exactly what a fresh one parsing each text sends,
// draw the same RNG values, consume the same service time and count the
// same stats (other than plans), over a seeded mix of every path
// through HandleQuery and enough distinct texts to overflow the memo.
TEST(QueryManagerPlan, MemoMatchesFreshManager) {
  for (const std::uint32_t fanout : {1u, 2u}) {
    QueryManagerConfig config;
    config.name = "qm";
    config.rules = {{"arch", "sun", {"pm.sun"}},
                    {"arch", "hp", {"pm.hp0", "pm.hp1"}},
                    {"arch", "vax", {}}};
    config.default_pool_managers = {"pm0", "pm1", "pm2"};
    config.reintegrator = "reint";
    config.qos_fanout = fanout;
    const auto make_qm = [&config] {
      auto qm = std::make_unique<QueryManager>(config);
      qm->RegisterTranslator(
          "toy", [](const std::string& text) -> Result<std::string> {
            if (text == "want sun") {
              return std::string("punch.rsrc.arch = sun\n");
            }
            return InvalidArgument("toy: cannot translate");
          });
      return qm;
    };
    const std::vector<std::string> texts = {
        "punch.rsrc.arch = sun\npunch.user.accessgroup = ece\n",  // rule
        "punch.rsrc.arch = hp\n",                                  // rule
        "punch.rsrc.arch = linux\n",                               // default
        "punch.rsrc.arch = sun|hp\npunch.user.login = x\n",       // or
        "punch.rsrc.arch = vax\n",                          // unroutable
        "garbage query text",                               // parse error
    };

    // The next draws of a stream stand for its state.
    const auto draws = [](Rng rng) {
      return std::array<std::uint64_t, 4>{rng.Next(), rng.Next(), rng.Next(),
                                          rng.Next()};
    };
    auto memo = make_qm();
    Rng mix(fanout);
    Rng state(100 + fanout);
    std::size_t distinct = 0;
    for (std::uint64_t i = 1; i <= 12000; ++i) {
      net::Message m{net::msg::kQuery};
      m.SetHeader(net::hdr::kReplyTo, "client" + std::to_string(i % 7));
      m.SetHeader(net::hdr::kRequestId, std::to_string(i));
      switch (mix.NextBounded(4)) {
        case 0:
          m.body = texts[mix.NextBounded(texts.size())];
          break;
        case 1:  // translator-tagged: good, untranslatable, unknown
          m.body = mix.Bernoulli(0.5) ? "want sun" : "want vax";
          m.SetHeader("language", mix.Bernoulli(0.8) ? "toy" : "martian");
          break;
        default:  // distinct texts, more than the memo holds
          m.body = "punch.rsrc.cluster = c" + std::to_string(distinct++) +
                   "\npunch.user.accessgroup = ece\n";
          // A stale client hint is overwritten in place.
          if (distinct % 5 == 0) m.SetHeader(phdr::kTtl, "3");
          break;
      }
      const net::Envelope envelope{"client", "qm", m, 0};
      const QueryManagerStats before = memo->stats();
      RecordingContext memo_ctx(state);
      memo->OnMessage(envelope, memo_ctx);
      auto fresh = make_qm();
      RecordingContext fresh_ctx(state);
      fresh->OnMessage(envelope, fresh_ctx);

      ASSERT_EQ(memo_ctx.sends.size(), fresh_ctx.sends.size()) << m.body;
      for (std::size_t k = 0; k < memo_ctx.sends.size(); ++k) {
        const auto& [memo_to, memo_out] = memo_ctx.sends[k];
        const auto& [fresh_to, fresh_out] = fresh_ctx.sends[k];
        ASSERT_EQ(memo_to, fresh_to) << m.body;
        ASSERT_EQ(memo_out.type, fresh_out.type) << m.body;
        ASSERT_EQ(memo_out.headers, fresh_out.headers) << m.body;
        ASSERT_EQ(memo_out.body, fresh_out.body) << m.body;
      }
      ASSERT_EQ(memo_ctx.Consumed(), fresh_ctx.Consumed()) << m.body;
      ASSERT_EQ(draws(memo_ctx.rng()), draws(fresh_ctx.rng())) << m.body;
      const QueryManagerStats& after = memo->stats();
      const QueryManagerStats& once = fresh->stats();
      ASSERT_EQ(after.queries - before.queries, once.queries);
      ASSERT_EQ(after.fragments - before.fragments, once.fragments);
      ASSERT_EQ(after.composites - before.composites, once.composites);
      ASSERT_EQ(after.translation_failures - before.translation_failures,
                once.translation_failures);
      ASSERT_EQ(after.parse_failures - before.parse_failures,
                once.parse_failures);
      ASSERT_EQ(after.routing_failures - before.routing_failures,
                once.routing_failures);
      state = memo_ctx.rng();
    }
    ASSERT_GE(distinct, 5000u);
    // Besides the distinct texts, six parse (five listed, one
    // translated). Planning more than that many means the memo filled,
    // was cleared, and planned some texts again.
    EXPECT_GT(memo->stats().plans, distinct + 6);
    EXPECT_GT(memo->stats().fragments, 0u);
    EXPECT_GT(memo->stats().routing_failures, 0u);
    EXPECT_GT(memo->stats().parse_failures, 0u);
    EXPECT_GT(memo->stats().translation_failures, 0u);
  }

  // Repeats of a few texts are planned once each.
  QueryManagerConfig config;
  config.name = "qm";
  config.default_pool_managers = {"pm0", "pm1"};
  QueryManager qm(config);
  Rng state(5);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    net::Message m{net::msg::kQuery};
    m.SetHeader(net::hdr::kReplyTo, "client");
    m.SetHeader(net::hdr::kRequestId, std::to_string(i + 1));
    m.body = "punch.rsrc.cluster = c" + std::to_string(i % 4) + "\n";
    RecordingContext ctx(state);
    qm.OnMessage(net::Envelope{"client", "qm", m, 0}, ctx);
    state = ctx.rng();
  }
  EXPECT_EQ(qm.stats().fragments, 1000u);
  EXPECT_EQ(qm.stats().plans, 4u);
}

// Fragment bookkeeping travels on headers: QoS duplicates of one
// alternative share a single body, with fragment coordinates, sched
// hints, and the TTL all carried as message headers.
TEST_F(PipelineTest, QueryManagerCarriesFragmentStateOnHeaders) {
  QueryManagerConfig config;
  config.name = "qm";
  config.default_pool_managers = {"probe"};
  config.reintegrator = "probe";
  config.qos_fanout = 2;
  auto qm = std::make_shared<QueryManager>(config);
  network_.AddNode("qm", qm, {"alpha", 1});

  network_.Post("probe", "qm", ClientMessage(kSunQuery, 7));
  kernel_.Run();

  std::vector<const net::Message*> fragments;
  for (const auto& m : probe_->messages) {
    if (m.type == net::msg::kQuery) fragments.push_back(&m);
  }
  ASSERT_EQ(fragments.size(), 2u);
  EXPECT_EQ(fragments[0]->Header(phdr::kFragment), "0/2");
  EXPECT_EQ(fragments[1]->Header(phdr::kFragment), "1/2");
  EXPECT_EQ(fragments[0]->Header(phdr::kSchedHints), "1");
  EXPECT_EQ(fragments[0]->Header(phdr::kTtl), "8");
  EXPECT_EQ(fragments[0]->Header(phdr::kAccessGroup), "ece");
  // A basic query's body is forwarded verbatim, shared across the
  // duplicates.
  EXPECT_EQ(fragments[0]->body, fragments[1]->body);
  EXPECT_EQ(fragments[0]->body, kSunQuery);
}

// Delegation state travels on headers too: each hop appends itself to
// the visited header, decrements the TTL header, and forwards the body
// untouched.
TEST_F(PipelineTest, DelegationTracksTtlAndVisitedOnHeaders) {
  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.allow_create = false;
  network_.AddNode("pm0",
                   std::make_shared<PoolManager>(pm_config, &directory_),
                   {"alpha", 1});
  // A probe masquerading as the peer pool manager captures the
  // delegated message.
  directory::PoolManagerEntry peer;
  peer.name = "pm-peer";
  peer.address = "probe";
  ASSERT_TRUE(directory_.RegisterPoolManager(peer).ok());

  const std::string body = "punch.rsrc.arch = vax\n";
  network_.Post("probe", "pm0", QueryMessage(body, 5));
  kernel_.Run();

  const auto* delegated = probe_->last(net::msg::kQuery);
  ASSERT_NE(delegated, nullptr);
  EXPECT_EQ(delegated->Header(phdr::kTtl), "7");  // default 8, one hop
  EXPECT_EQ(delegated->Header(phdr::kVisited), "pm0");
  EXPECT_EQ(delegated->body, body);  // no re-serialization
}

TEST_F(PipelineTest, QueryManagerRoutesByParameterRule) {
  AddMachines(3, "sun");
  AddMachines(3, "hp");
  auto sun_pool = MakePool("punch.rsrc.arch = sun\n");
  auto hp_pool = MakePool("punch.rsrc.arch = hp\n");
  network_.AddNode("pool.sun", sun_pool, {"alpha", 1});
  network_.AddNode("pool.hp", hp_pool, {"alpha", 1});

  PoolManagerConfig pm_sun;
  pm_sun.name = "pm.sun";
  pm_sun.allow_create = false;
  pm_sun.allow_delegate = false;
  PoolManagerConfig pm_hp;
  pm_hp.name = "pm.hp";
  pm_hp.allow_create = false;
  pm_hp.allow_delegate = false;
  auto pm_sun_node = std::make_shared<PoolManager>(pm_sun, &directory_);
  auto pm_hp_node = std::make_shared<PoolManager>(pm_hp, &directory_);
  network_.AddNode("pm.sun", pm_sun_node, {"alpha", 1});
  network_.AddNode("pm.hp", pm_hp_node, {"alpha", 1});

  QueryManagerConfig qm_config;
  qm_config.name = "qm0";
  qm_config.rules = {{"arch", "sun", {"pm.sun"}}, {"arch", "hp", {"pm.hp"}}};
  qm_config.default_pool_managers = {"pm.sun"};
  auto qm = std::make_shared<QueryManager>(qm_config);
  network_.AddNode("qm0", qm, {"alpha", 1});

  network_.Post("probe", "qm0", ClientMessage("punch.rsrc.arch = hp\n", 1));
  network_.Post("probe", "qm0", ClientMessage("punch.rsrc.arch = sun\n", 2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 2);
  EXPECT_EQ(pm_hp_node->stats().queries, 1u);
  EXPECT_EQ(pm_sun_node->stats().queries, 1u);
}

TEST_F(PipelineTest, CompositeQueryReintegrates) {
  AddMachines(3, "sun");
  AddMachines(3, "hp");
  network_.AddNode("pool.sun", MakePool("punch.rsrc.arch = sun\n"),
                   {"alpha", 1});
  network_.AddNode("pool.hp", MakePool("punch.rsrc.arch = hp\n"),
                   {"alpha", 1});

  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.allow_create = false;
  pm_config.allow_delegate = false;
  network_.AddNode("pm0",
                   std::make_shared<PoolManager>(pm_config, &directory_),
                   {"alpha", 1});

  ReintegratorConfig reint_config;
  reint_config.name = "reint";
  reint_config.sweep_period = 0;
  auto reint = std::make_shared<Reintegrator>(reint_config);
  network_.AddNode("reint", reint, {"alpha", 1});

  QueryManagerConfig qm_config;
  qm_config.name = "qm0";
  qm_config.default_pool_managers = {"pm0"};
  qm_config.reintegrator = "reint";
  auto qm = std::make_shared<QueryManager>(qm_config);
  network_.AddNode("qm0", qm, {"alpha", 1});

  // "sun or hp": both fragments allocate; the reintegrator forwards the
  // better one and releases the loser.
  network_.Post("probe", "qm0",
                ClientMessage("punch.rsrc.arch = sun|hp\n", 42));
  kernel_.Run();

  EXPECT_EQ(qm->stats().composites, 1u);
  EXPECT_EQ(qm->stats().fragments, 2u);
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(reint->stats().completed, 1u);
  EXPECT_EQ(reint->stats().released_duplicates, 1u);
  EXPECT_EQ(reint->open_requests(), 0u);
  // The released machine's pool got its release message.
  EXPECT_EQ(probe_->last(net::msg::kAllocation)
                ->Header(net::hdr::kRequestId),
            "42");
}

TEST_F(PipelineTest, QueryManagerFailsUnroutableQuery) {
  QueryManagerConfig qm_config;
  qm_config.name = "qm0";
  // No rules, no defaults.
  auto qm = std::make_shared<QueryManager>(qm_config);
  network_.AddNode("qm0", qm, {"alpha", 1});
  network_.Post("probe", "qm0", ClientMessage(kSunQuery));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
  EXPECT_EQ(qm->stats().routing_failures, 1u);
}

TEST_F(PipelineTest, QueryManagerReportsParseErrors) {
  QueryManagerConfig qm_config;
  qm_config.name = "qm0";
  qm_config.default_pool_managers = {"pm0"};
  auto qm = std::make_shared<QueryManager>(qm_config);
  network_.AddNode("qm0", qm, {"alpha", 1});
  network_.Post("probe", "qm0", ClientMessage("garbage query text"));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
  EXPECT_EQ(qm->stats().parse_failures, 1u);
}

TEST_F(PipelineTest, QueryManagerTranslatorHook) {
  AddMachines(2, "sun");
  network_.AddNode("pool.sun", MakePool("punch.rsrc.arch = sun\n"),
                   {"alpha", 1});
  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.allow_create = false;
  pm_config.allow_delegate = false;
  network_.AddNode("pm0",
                   std::make_shared<PoolManager>(pm_config, &directory_),
                   {"alpha", 1});

  QueryManagerConfig qm_config;
  qm_config.name = "qm0";
  qm_config.default_pool_managers = {"pm0"};
  auto qm = std::make_shared<QueryManager>(qm_config);
  qm->RegisterTranslator("toy", [](const std::string& text) -> Result<std::string> {
    if (text == "want sun") return std::string("punch.rsrc.arch = sun\n");
    return InvalidArgument("toy: cannot translate");
  });
  network_.AddNode("qm0", qm, {"alpha", 1});

  net::Message m = ClientMessage("want sun");
  m.SetHeader("language", "toy");
  network_.Post("probe", "qm0", std::move(m));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);

  net::Message bad = ClientMessage("want vax", 2);
  bad.SetHeader("language", "toy");
  network_.Post("probe", "qm0", std::move(bad));
  net::Message unknown = ClientMessage("x", 3);
  unknown.SetHeader("language", "martian");
  network_.Post("probe", "qm0", std::move(unknown));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 2);
  EXPECT_EQ(qm->stats().translation_failures, 2u);
}

// --- split pools (Fig. 7 machinery) ---

TEST_F(PipelineTest, SplitPoolFansOutAndAggregates) {
  AddMachines(8, "sun");
  auto seg0 = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.instance = 0;
                         c.segment = true;
                         c.claim_name = c.pool_name + "#0";
                         c.claim_limit = 4;
                       });
  network_.AddNode("pool.s0", seg0, {"alpha", 1});
  auto seg1 = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.instance = 1;
                         c.segment = true;
                         c.claim_name = c.pool_name + "#1";
                         c.claim_limit = 0;
                       });
  network_.AddNode("pool.s1", seg1, {"alpha", 1});
  EXPECT_EQ(seg0->cache_size(), 4u);
  EXPECT_EQ(seg1->cache_size(), 4u);  // disjoint partition

  ReintegratorConfig reint_config;
  reint_config.name = "reint";
  reint_config.sweep_period = 0;
  auto reint = std::make_shared<Reintegrator>(reint_config);
  network_.AddNode("reint", reint, {"alpha", 1});

  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.allow_create = false;
  pm_config.allow_delegate = false;
  pm_config.reintegrator = "reint";
  auto pm = std::make_shared<PoolManager>(pm_config, &directory_);
  network_.AddNode("pm0", pm, {"alpha", 1});

  net::Message m = QueryMessage(kSunQuery, 7);
  m.SetHeader(phdr::kFinalReplyTo, "probe");
  network_.Post("probe", "pm0", std::move(m));
  kernel_.Run();

  EXPECT_EQ(pm->stats().fanouts, 1u);
  EXPECT_EQ(seg0->stats().queries + seg1->stats().queries, 2u);
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(reint->stats().released_duplicates, 1u);
}

}  // namespace
}  // namespace actyp::pipeline
