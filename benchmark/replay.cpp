#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "monitor/monitor.hpp"
#include "pipeline/pool_manager.hpp"
#include "pipeline/protocol.hpp"
#include "pipeline/query_manager.hpp"
#include "pipeline/reintegrator.hpp"
#include "pipeline/resource_pool.hpp"
#include "query/parser.hpp"
#include "replica/group.hpp"
#include "simnet/sim_network.hpp"
#include "workload/client.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace actyp::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

// Runs fn() once, charging its host time and heap allocations to
// `cost`: as one call, or as the number of calls fn() returns.
template <typename F>
void Timed(CallCost* cost, F&& fn) {
  const AllocCount a0 = AllocCounts();
  const Clock::time_point t0 = Clock::now();
  std::uint64_t calls = 1;
  if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
    fn();
  } else {
    calls = fn();
  }
  const Clock::time_point t1 = Clock::now();
  const AllocCount a1 = AllocCounts();
  cost->Add(std::chrono::duration<double, std::nano>(t1 - t0).count(), calls,
            (a1 - a0).calls);
}

// Repeats fn() until `budget_ms` of host time has passed.
template <typename F>
void ForBudget(double budget_ms, F&& fn) {
  const double end = WallSeconds() + budget_ms * 1e-3;
  do {
    fn();
  } while (WallSeconds() < end);
}

// Keeps the optimizer from discarding a timed result.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// A NodeContext that runs one handler outside any network: sends and
// self-timers are captured for the caller to route by hand.
class RecordingContext final : public net::NodeContext {
 public:
  RecordingContext(net::Address self, std::uint64_t seed)
      : self_(std::move(self)), rng_(seed) {}

  void Begin(SimTime now) {
    now_ = now;
    consumed_ = 0;
    sends.clear();
    timers.clear();
  }

  [[nodiscard]] SimTime Now() const override { return now_; }
  void Send(const net::Address& to, net::Message message) override {
    sends.emplace_back(to, std::move(message));
  }
  void Consume(SimDuration duration) override {
    if (duration > 0) consumed_ += duration;
  }
  [[nodiscard]] SimDuration Consumed() const override { return consumed_; }
  net::TimerId ScheduleSelf(SimDuration, net::Message message) override {
    timers.push_back(std::move(message));
    return ++next_timer_;
  }
  bool CancelSelf(net::TimerId) override { return true; }
  Rng& rng() override { return rng_; }
  [[nodiscard]] const net::Address& self() const override { return self_; }

  std::vector<std::pair<net::Address, net::Message>> sends;
  std::vector<net::Message> timers;

 private:
  net::Address self_;
  Rng rng_;
  SimTime now_ = 0;
  SimDuration consumed_ = 0;
  net::TimerId next_timer_ = 0;
};

class NoopNode final : public net::Node {
 public:
  void OnMessage(const net::Envelope&, net::NodeContext&) override {}
};

net::Message Tick(std::string_view action) {
  net::Message tick{net::msg::kTick};
  if (!action.empty()) tick.SetHeader("action", std::string(action));
  return tick;
}

// One site of the workload's deployment, wired by hand. LP workloads
// replay site 0: its slice of the fleet, its pools, and the queries its
// pools serve (the rest cost the same at their owner sites).
class Deployment {
 public:
  Deployment(const ScenarioConfig& config, bool lp)
      : config_(config), rng_(config.seed) {
    const std::size_t clusters = std::max<std::size_t>(1, config.clusters);
    const std::size_t sites = lp ? config.wan_sites : 1;

    workload::FleetSpec fleet;
    fleet.cluster_count = clusters;
    fleet.machine_count = config.machines;
    if (sites > 1) {
      fleet.domain = "site0";
      fleet.machine_count = 0;
      for (std::size_t c = 0; c < clusters; c += sites) {
        fleet.cluster_ids.push_back(c);
        fleet.machine_count += config.machines / clusters +
                               (c < config.machines % clusters ? 1 : 0);
      }
    }
    workload::BuildFleet(fleet, rng_, &database_, &shadows_);
    monitor_ = std::make_unique<monitor::ResourceMonitor>(
        &database_, monitor::MonitorConfig{}, rng_.Fork());

    if (config.profile) profiler_ = std::make_unique<profile::StageProfiler>();
    directory::DirectoryApi* dir = &directory_;
    if (config.directory_replicas > 1) {
      replica::ReplicaGroupConfig group_config;
      group_config.sync_period = config.directory_sync_period;
      group_config.journal_capacity = config.directory_journal_capacity;
      group_config.seed = config.seed ^ 0x5e11caULL;
      group_config.profiler = profiler_.get();
      replicas_ = std::make_unique<replica::ReplicaGroup>(&replica_kernel_,
                                                          group_config);
      for (std::uint32_t i = 0; i < config.directory_replicas; ++i) {
        replicas_->AddReplica(i % 2 == 0 ? "server" : "client");
      }
      replicas_->Start();
      handle_ = std::make_unique<replica::ReplicaHandle>(replicas_.get(),
                                                         "server");
      dir = handle_.get();
    }

    workload::QuerySpec query_spec;
    query_spec.cluster_count = clusters;
    query_spec.hot_fraction = config.hot_fraction;
    const workload::QueryGenerator generator(query_spec);

    pipeline::ReintegratorConfig reint_config;
    reint_config.name = "reint";
    reint_config.costs = config.costs;
    reint_config.profiler = profiler_.get();
    reint_ = std::make_unique<pipeline::Reintegrator>(reint_config);
    Start(reint_.get(), "reint");

    pipeline::PoolManagerConfig pm_config;
    pm_config.name = "pm0";
    pm_config.proxies = {"proxy"};
    pm_config.reintegrator = "reint";
    pm_config.allow_create = !config.precreate_pools;
    pm_config.costs = config.costs;
    pm_config.profiler = profiler_.get();
    pm_ = std::make_unique<pipeline::PoolManager>(pm_config, dir);
    Start(pm_.get(), "pm0");

    pipeline::QueryManagerConfig qm_config;
    qm_config.name = "qm0";
    qm_config.default_pool_managers = {"pm0"};
    qm_config.reintegrator = "reint";
    qm_config.qos_fanout = config.qos_fanout;
    qm_config.costs = config.costs;
    qm_config.profiler = profiler_.get();
    if (sites > 1) {
      // LP query managers carry one routing rule per cluster.
      for (std::size_t c = 0; c < clusters; ++c) {
        qm_config.rules.push_back(
            pipeline::PmRule{"cluster", "c" + std::to_string(c), {"pm0"}});
      }
    }
    qm_ = std::make_unique<pipeline::QueryManager>(qm_config);
    Start(qm_.get(), "qm0");

    const std::uint32_t replicas =
        std::max<std::uint32_t>(1, config.pool_replicas);
    for (std::size_t c = 0; c < clusters; c += sites) {
      auto criteria = query::Parser::ParseBasic(generator.ForCluster(c));
      query::Query pool_criteria(criteria->family());
      for (const auto& [name, cond] : criteria->rsrc()) {
        pool_criteria.SetRsrc(name, cond);
      }
      for (std::uint32_t r = 0; r < replicas; ++r) {
        pipeline::ResourcePoolConfig pool_config;
        pool_config.pool_name = pool_criteria.PoolName();
        pool_config.instance = r;
        pool_config.instance_count = replicas;
        pool_config.criteria = pool_criteria;
        pool_config.policy = config.policy;
        pool_config.resort_period = config.resort_period;
        pool_config.costs = config.costs;
        pool_config.profiler = profiler_.get();
        const std::string address =
            "pool.c" + std::to_string(c) + ".r" + std::to_string(r);
        auto pool = std::make_unique<pipeline::ResourcePool>(
            pool_config, &database_, dir, &shadows_, &policies_);
        Start(pool.get(), address);
        pools_.emplace(address, std::move(pool));
      }
    }

    workload::ClientConfig client_config;
    client_config.client_id = 1;
    client_config.entry = "qm0";
    if (sites > 1) {
      // Same work as QueryGenerator::Next (one bounded draw, one
      // render), restricted to the clusters site 0 owns.
      const std::size_t local = (clusters + sites - 1) / sites;
      client_config.make_query = [generator, sites, local](Rng& rng) {
        return generator.ForCluster(sites * rng.NextBounded(local));
      };
    } else {
      client_config.make_query = [generator](Rng& rng) {
        return generator.Next(rng);
      };
    }
    client_config.think_time = config.think_time;
    client_config.job_duration = config.job_duration;
    client_config.collector = &collector_;
    client_config.profiler = profiler_.get();
    client_config.request_timeout = config.client_request_timeout;
    client_config.retry_max = config.retry_max;
    client_config.retry_backoff = config.retry_backoff;
    client_ = std::make_unique<workload::ClientNode>(client_config);
    Start(client_.get(), "client0");
  }

  // One request through every stage; false when a stage did not send
  // what the next one needs (see error()).
  bool Request(ReplayCosts* costs) {
    now_ += Millis(1);
    auto [qm, query] =
        Deliver(client_.get(), "client0", Tick("next-query"), &costs->client);
    if (qm != "qm0") return Fail("client sent no query");
    if (sample_query_text_.empty()) sample_query_text_ = query.body;

    auto [pm, forward] = Deliver(qm_.get(), "qm0", std::move(query),
                                 &costs->qm);
    if (pm != "pm0") return Fail("query manager did not forward");
    if (sample_forward_.type.empty()) sample_forward_ = forward;

    auto [pool_address, to_pool] =
        Deliver(pm_.get(), "pm0", std::move(forward), &costs->pm);
    const auto pool_it = pools_.find(pool_address);
    if (pool_it == pools_.end()) return Fail("pool manager found no pool");
    pipeline::ResourcePool* pool = pool_it->second.get();

    auto [client, allocation] = Deliver(pool, pool_address, std::move(to_pool),
                                        &costs->pool_query);
    if (allocation.type != net::msg::kAllocation) {
      return Fail("pool did not allocate");
    }
    if (sample_allocation_.session_key.empty()) {
      if (auto parsed = pipeline::ParseAllocationMessage(allocation);
          parsed.ok()) {
        sample_allocation_ = *parsed;
      }
    }

    auto [back, forwarded] = Deliver(reint_.get(), "reint",
                                     std::move(allocation), &costs->reint);
    if (back != "client0") return Fail("reintegrator did not forward");

    auto [to, release] = Deliver(client_.get(), "client0",
                                 std::move(forwarded), &costs->client);
    if (to.empty()) {
      // A held job: the release goes out when the job-done timer fires.
      net::Message job_done;
      for (net::Message& timer : Context("client0").timers) {
        if (timer.Header("action") == "job-done") job_done = std::move(timer);
      }
      now_ += Millis(1);
      std::tie(to, release) = Deliver(client_.get(), "client0",
                                      std::move(job_done), &costs->client);
    }
    if (to != pool_address || release.type != net::msg::kRelease) {
      return Fail("client did not release its allocation");
    }
    Deliver(pool, pool_address, std::move(release), &costs->pool_release);
    return true;
  }

  // The next background event in simulated time: a monitor sweep, or
  // every pool's refresh tick.
  void Background(ReplayCosts* costs) {
    if (next_sweep_ <= next_tick_) {
      now_ = std::max(now_, next_sweep_);
      next_sweep_ = now_ + config_.monitor_period;
      Timed(&costs->monitor_sweep, [&] { monitor_->Step(now_); });
      return;
    }
    now_ = std::max(now_, next_tick_);
    next_tick_ = now_ + config_.resort_period;
    for (auto& [address, pool] : pools_) {
      Deliver(pool.get(), address, Tick(""), &costs->pool_tick);
    }
  }

  // The two white-pages calls a machine-crash strike makes: ForEach
  // over the fleet collecting up machines, then Update on the victim;
  // its restore is one more Update.
  void CrashStrike(ReplayCosts* costs) {
    std::vector<db::MachineId> up;
    Timed(&costs->db_foreach, [&] {
      database_.ForEach([&up](const db::MachineRecord& rec) {
        if (rec.state == db::MachineState::kUp) up.push_back(rec.id);
      });
    });
    if (up.empty()) return;
    const db::MachineId victim = up[rng_.NextBounded(up.size())];
    for (const auto state : {db::MachineState::kDown, db::MachineState::kUp}) {
      Timed(&costs->db_update, [&] {
        (void)database_.Update(
            victim, [state](db::MachineRecord& rec) { rec.state = state; });
      });
    }
    costs->db_records = database_.size();
  }

  // One sync period of the replicated directory, with one pool
  // re-registration per period so the pulls carry a delta.
  void ReplicaPeriod(ReplayCosts* costs) {
    const auto& [address, pool] = *pools_.begin();
    directory::PoolInstance instance;
    instance.pool_name = pool->config().pool_name;
    instance.instance = pool->config().instance;
    instance.address = address;
    instance.machine_count = pool->cache_size();
    (void)handle_->UnregisterPool(instance.pool_name, instance.instance);
    (void)handle_->RegisterPool(instance);
    const SimTime until = replica_kernel_.Now() + config_.directory_sync_period;
    Timed(&costs->replica_sync, [&] {
      const std::uint64_t rounds = replicas_->stats().sync_rounds;
      replica_kernel_.RunUntil(until);
      return replicas_->stats().sync_rounds - rounds;
    });
  }

  [[nodiscard]] const std::string& error() const { return error_; }
  // A query as the query manager forwards it, an allocation as a pool
  // grants it, and a generated query text (for the helper replays).
  [[nodiscard]] const net::Message& sample_forward() const {
    return sample_forward_;
  }
  [[nodiscard]] const pipeline::Allocation& sample_allocation() const {
    return sample_allocation_;
  }
  [[nodiscard]] const std::string& sample_query_text() const {
    return sample_query_text_;
  }

 private:
  RecordingContext& Context(const net::Address& address) {
    auto it = contexts_.find(address);
    if (it == contexts_.end()) {
      it = contexts_
               .emplace(address, std::make_unique<RecordingContext>(
                                     address, config_.seed + contexts_.size()))
               .first;
    }
    return *it->second;
  }

  void Start(net::Node* node, const net::Address& address) {
    RecordingContext& ctx = Context(address);
    ctx.Begin(now_);
    node->OnStart(ctx);
  }

  bool Fail(std::string what) {
    error_ = std::move(what);
    return false;
  }

  // Delivers `message` to `node`, charging the call to `cost`, and
  // returns the first message the node sent with its destination (an
  // empty destination when it sent nothing). The handlers ignore the
  // envelope's sender, so it is always the node itself.
  std::pair<net::Address, net::Message> Deliver(net::Node* node,
                                                const net::Address& address,
                                                net::Message message,
                                                CallCost* cost) {
    RecordingContext& ctx = Context(address);
    ctx.Begin(now_);
    const net::Envelope env{address, address, std::move(message), now_};
    Timed(cost, [&] { node->OnMessage(env, ctx); });
    if (ctx.sends.empty()) return {};
    return std::move(ctx.sends.front());
  }

  ScenarioConfig config_;
  Rng rng_;
  SimTime now_ = 0;
  SimTime next_sweep_ = 0;
  SimTime next_tick_ = 0;
  db::ResourceDatabase database_;
  db::ShadowAccountRegistry shadows_;
  db::PolicyRegistry policies_;
  directory::DirectoryService directory_;
  simnet::SimKernel replica_kernel_;
  std::unique_ptr<profile::StageProfiler> profiler_;
  std::unique_ptr<replica::ReplicaGroup> replicas_;
  std::unique_ptr<replica::ReplicaHandle> handle_;
  std::unique_ptr<monitor::ResourceMonitor> monitor_;
  workload::ResponseCollector collector_;
  std::map<net::Address, std::unique_ptr<RecordingContext>> contexts_;
  std::unique_ptr<pipeline::Reintegrator> reint_;
  std::unique_ptr<pipeline::PoolManager> pm_;
  std::unique_ptr<pipeline::QueryManager> qm_;
  std::map<net::Address, std::unique_ptr<pipeline::ResourcePool>> pools_;
  std::unique_ptr<workload::ClientNode> client_;
  std::string error_;
  std::string sample_query_text_;
  net::Message sample_forward_;
  pipeline::Allocation sample_allocation_;
};

// Classic hold model: `depth` pending events; each step pops the
// earliest and schedules one replacement at a random future time.
void ReplayKernel(std::size_t depth, double budget_ms, CallCost* cost) {
  simnet::SimKernel kernel;
  kernel.Reserve(depth + 1);
  Rng rng(7);
  const SimDuration span = Millis(10);
  for (std::size_t i = 0; i < depth; ++i) {
    kernel.Schedule(static_cast<SimDuration>(rng.NextBounded(span)), [] {});
  }
  constexpr std::uint64_t kBatch = 1024;
  ForBudget(budget_ms, [&] {
    Timed(cost, [&] {
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        kernel.Schedule(1 + static_cast<SimDuration>(rng.NextBounded(span)),
                        [] {});
        kernel.Step();
      }
      return kBatch;
    });
  });
}

// One message through SimNetwork to a no-op node: Post, the delivery
// event, dispatch and the completion event, at the measured depth.
void ReplayNetwork(const net::Message& sample, std::size_t depth,
                   double budget_ms, CallCost* cost) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 7);
  network.AddHost("server", 64);
  (void)network.AddNode("src", std::make_shared<NoopNode>(), {"server", 1});
  (void)network.AddNode("sink", std::make_shared<NoopNode>(), {"server", 1});
  constexpr SimTime kFar = SimTime{1} << 60;
  for (std::size_t i = 0; i < depth; ++i) kernel.ScheduleAt(kFar, [] {});
  constexpr std::uint64_t kBatch = 256;
  std::vector<net::Message> batch;
  ForBudget(budget_ms, [&] {
    batch.assign(kBatch, sample);
    Timed(cost, [&] {
      for (net::Message& message : batch) {
        network.Post("src", "sink", std::move(message));
        while (kernel.pending() > depth) kernel.Step();
      }
      return kBatch;
    });
  });
}

// Times `fn` in batches of `kBatch` calls for `budget_ms`.
template <typename F>
void ReplayCall(double budget_ms, CallCost* cost, F&& fn) {
  constexpr std::uint64_t kBatch = 256;
  ForBudget(budget_ms, [&] {
    Timed(cost, [&] {
      for (std::uint64_t i = 0; i < kBatch; ++i) fn();
      return kBatch;
    });
  });
}

void ReplayHelpers(const Deployment& deployment, const ScenarioConfig& config,
                   double budget_ms, ReplayCosts* costs) {
  const std::string& text = deployment.sample_query_text();
  const auto parsed = query::Parser::ParseBasic(text);
  const query::Query q = parsed.ok() ? *parsed : query::Query();
  std::uint64_t id = 1;
  ReplayCall(budget_ms, &costs->message_build, [&] {
    Keep(pipeline::MakeQueryMessage(q, "qm0", "client0", ++id));
  });
  const net::Message& forward = deployment.sample_forward();
  ReplayCall(budget_ms, &costs->header_lookup,
             [&] { Keep(pipeline::RequestIdOf(forward)); });
  const pipeline::Allocation& allocation = deployment.sample_allocation();
  ReplayCall(budget_ms, &costs->alloc_roundtrip, [&] {
    Keep(pipeline::ParseAllocationMessage(
        pipeline::MakeAllocationMessage(allocation)));
  });
  ReplayCall(budget_ms, &costs->query_parse,
             [&] { Keep(query::Parser::Parse(text)); });
  profile::StageProfiler::Config profiler_config;
  profiler_config.ring_capacity = config.profile_ring_capacity;
  profile::StageProfiler profiler(profiler_config);
  Rng rng(11);
  SimTime start = 0;
  ReplayCall(budget_ms, &costs->profile_record, [&] {
    start += Millis(1);
    profiler.Record(
        profile::Stage::kPoolSelect, ++id, start,
        start + 1 + static_cast<SimDuration>(rng.NextBounded(Millis(50))));
  });
}

}  // namespace

void CallCost::Add(double ns, std::uint64_t calls, std::uint64_t allocs) {
  calls_ += calls;
  allocs_ += allocs;
  open_ns_ += ns;
  open_calls_ += calls;
  if (open_calls_ >= 64 || (open_calls_ > 0 && open_ns_ >= 5e6)) {
    block_ns_per_call_.push_back(open_ns_ / static_cast<double>(open_calls_));
    open_ns_ = 0;
    open_calls_ = 0;
  }
}

double CallCost::ns_per_call() const {
  if (block_ns_per_call_.empty()) {
    return open_calls_ == 0 ? 0 : open_ns_ / static_cast<double>(open_calls_);
  }
  std::vector<double> sorted = block_ns_per_call_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : (sorted[mid - 1] + sorted[mid]) / 2;
}

ReplayCosts RunReplay(const ScenarioConfig& config, bool lp,
                      std::size_t kernel_depth, double budget_ms) {
  ReplayCosts costs;
  Deployment deployment(config, lp);
  // Untimed warm-up: containers that grow to a fixed size (the span
  // ring, session maps) finish growing before any call is charged.
  ReplayCosts warmup;
  bool ok = true;
  for (int i = 0; i < 2000 && ok; ++i) ok = deployment.Request(&warmup);
  ForBudget(budget_ms, [&] { ok = ok && deployment.Request(&costs); });
  if (!ok) {
    costs.error = deployment.error();
    return costs;
  }
  ForBudget(budget_ms, [&] { deployment.Background(&costs); });
  ForBudget(budget_ms, [&] { deployment.CrashStrike(&costs); });
  if (config.directory_replicas > 1) {
    ForBudget(budget_ms, [&] { deployment.ReplicaPeriod(&costs); });
  }
  ReplayKernel(kernel_depth, budget_ms, &costs.kernel_event);
  ReplayNetwork(deployment.sample_forward(), kernel_depth, budget_ms,
                &costs.network_message);
  ReplayHelpers(deployment, config, budget_ms, &costs);
  return costs;
}

}  // namespace actyp::benchmark
