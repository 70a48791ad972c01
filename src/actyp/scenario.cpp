#include "actyp/scenario.hpp"

#include <algorithm>
#include <limits>

#include "actyp/monitor_node.hpp"
#include "common/logging.hpp"
#include "query/parser.hpp"

namespace actyp {
namespace {

constexpr const char* kServerHost = "alpha";
constexpr const char* kClientHost = "clients";
// Second server host, added on the client site when the directory is
// replicated across a WAN so both sides of a partition keep a full
// service stack (replica + pool manager + query manager + pools).
constexpr const char* kRemoteHost = "beta";

}  // namespace

// One WAN site of a multi-site (LP) deployment. Every mutable service
// here — white pages, directory, shadow accounts, monitor, collector,
// profiler — is reached only from nodes hosted on this site, which is
// exactly what lets the site run as a logical process sharing no state
// with its peers.
struct SimScenario::SiteStack {
  std::string site;
  std::string server_host;
  std::string client_host;
  std::unique_ptr<profile::StageProfiler> profiler;
  db::ResourceDatabase database;
  db::ShadowAccountRegistry shadows;
  db::PolicyRegistry policies;
  directory::DirectoryService directory;
  std::unique_ptr<monitor::ResourceMonitor> monitor;
  std::shared_ptr<pipeline::ProxyServer> proxy;
  workload::ResponseCollector collector;
  std::vector<net::Address> pm_addresses;
  std::vector<net::Address> qm_addresses;
};

SimScenario::SimScenario(ScenarioConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  Build();
}

SimScenario::~SimScenario() = default;

void SimScenario::Build() {
  // --- LP-parallel eligibility ---
  // Multi-site sharding is a scenario property: every shard-local
  // invariant below (per-site databases, per-site draws, lookahead > 0)
  // must hold by construction, so configs that would break one fall
  // back to the single-site serial build with a warning instead of
  // running a subtly wrong parallel simulation.
  if (config_.wan_sites >= 2) {
    std::string reason;
    if (!config_.fault_plan.events.empty()) {
      reason = "fault plan present";
    } else if (config_.directory_replicas > 1) {
      reason = "directory replication enabled";
    } else if (!config_.precreate_pools) {
      reason = "on-demand pool creation";
    } else if (config_.wan_one_way <= 0) {
      reason = "zero-latency WAN link leaves no lookahead";
    } else if (config_.clusters < config_.wan_sites) {
      reason = "fewer clusters than sites";
    }
    if (reason.empty()) {
      BuildMultiSite();
      return;
    }
    ACTYP_WARN << "scenario: LP sharding disabled (" << reason
               << "); falling back to the single-site serial build";
  }

  // Typical concurrent event population: one or two timers per client
  // plus per-node ticks; pre-sizing avoids slab growth mid-run.
  kernel_.Reserve(config_.clients * 4 + config_.machines / 8 + 64);

  // --- stage profiler ---
  // Built first so every stage config below can carry the raw pointer
  // (it outlives the network and any fault-restart config copies).
  // When profiling is off the pointer stays null and every hook reduces
  // to a pointer test: the seed path, byte for byte.
  if (config_.profile) {
    profile::StageProfiler::Config profiler_config;
    profiler_config.ring_capacity = config_.profile_ring_capacity;
    profiler_ = std::make_unique<profile::StageProfiler>(profiler_config);
  }
  profile::StageProfiler* profiler = profiler_.get();

  // --- flight recorder ---
  // Same null-hook discipline as the profiler: when disabled every
  // recording site reduces to a pointer test and the run is the seed
  // path byte for byte.
  if (config_.flight_recorder) {
    recorders_.push_back(
        std::make_unique<obs::FlightRecorder>(0, config_.flight_capacity));
  }
  obs::FlightRecorder* recorder =
      recorders_.empty() ? nullptr : recorders_.front().get();

  // --- topology ---
  simnet::Topology topology = simnet::Topology::Lan();
  if (config_.wan) {
    topology = simnet::Topology::WanTwoSites(
        "purdue", "upc", config_.wan_one_way, config_.wan_jitter);
  }
  network_ = std::make_unique<simnet::SimNetwork>(&kernel_, topology,
                                                  config_.seed ^ 0x6e0d3ULL);
  network_->SetLossProbability(config_.message_loss_probability);
  network_->SetFlightRecorder(0, recorder);
  fault_ = std::make_unique<fault::FaultInjector>(
      &kernel_, network_.get(), config_.seed ^ 0xfa017ULL);
  fault_->SetRecorder(recorder);
  InstallFaultHooks();
  const std::string server_site = config_.wan ? "upc" : "local";
  const std::string client_site = config_.wan ? "purdue" : "local";
  fault_->RegisterSite(server_site);
  fault_->RegisterSite(client_site);
  network_->AddHost(kServerHost, config_.server_cores, server_site);
  network_->AddHost(kClientHost,
                    static_cast<int>(std::max<std::size_t>(1, config_.clients)),
                    client_site);

  // --- replicated directory ---
  const bool replicated = config_.directory_replicas > 1;
  const bool dual_site = replicated && config_.wan;
  if (dual_site) {
    network_->AddHost(kRemoteHost, config_.server_cores, client_site);
  }
  if (replicated) {
    replica::ReplicaGroupConfig group_config;
    group_config.sync_period = config_.directory_sync_period;
    group_config.journal_capacity = config_.directory_journal_capacity;
    group_config.seed = config_.seed ^ 0x5e11caULL;
    group_config.profiler = profiler;
    group_config.recorder = recorder;
    replicas_ = std::make_unique<replica::ReplicaGroup>(&kernel_,
                                                        group_config);
    for (std::uint32_t i = 0; i < config_.directory_replicas; ++i) {
      // Even replicas at the server site, odd ones at the client site
      // (every replica is "local" on a LAN).
      replicas_->AddReplica(i % 2 == 0 ? server_site : client_site);
    }
    replicas_->SetReachability(
        [this](const std::string& a, const std::string& b) {
          return !network_->topology().IsSitePartitioned(a, b);
        });
    server_directory_ =
        std::make_unique<replica::ReplicaHandle>(replicas_.get(), server_site);
    remote_directory_ =
        std::make_unique<replica::ReplicaHandle>(replicas_.get(), client_site);
    // Replica crash/restore under churn: each replica is a crashable
    // service ("replica0", ...) co-located with its site.
    for (std::uint32_t i = 0; i < config_.directory_replicas; ++i) {
      fault_->RegisterService(
          "replica" + std::to_string(i),
          [this, i] { replicas_->Crash(i); },
          [this, i] { replicas_->Restore(i); }, replicas_->replica(i)->site());
    }
    replicas_->Start();
  }
  dir_api_ =
      replicated
          ? static_cast<directory::DirectoryApi*>(server_directory_.get())
          : static_cast<directory::DirectoryApi*>(&directory_);
  // Components on the remote (client-site) host register and look up
  // through their own side's replica.
  directory::DirectoryApi* remote_api =
      dual_site ? static_cast<directory::DirectoryApi*>(remote_directory_.get())
                : dir_api_;

  // --- fleet ---
  workload::FleetSpec fleet;
  fleet.machine_count = config_.machines;
  fleet.cluster_count = std::max<std::size_t>(1, config_.clusters);
  BuildFleet(fleet, rng_, &database_, &shadows_);

  // Assign machines to sites (round-robin on a WAN) so correlated
  // site-crash events know which half of the fleet goes dark together.
  site_machines_.clear();
  std::size_t machine_index = 0;
  database_.VisitAll([&](const db::MachineRecord& rec) {
    const std::string& site =
        config_.wan && machine_index % 2 == 1 ? client_site : server_site;
    site_machines_[site].push_back(rec.id);
    ++machine_index;
  });

  monitor_ = std::make_unique<monitor::ResourceMonitor>(
      &database_, monitor::MonitorConfig{}, rng_.Fork());
  network_->AddNode(
      "monitor",
      std::make_shared<MonitorNode>(monitor_.get(), config_.monitor_period,
                                    profiler),
      net::NodePlacement{kServerHost, 1});

  // --- reintegrator ---
  pipeline::ReintegratorConfig reint_config;
  reint_config.name = "reint";
  reint_config.costs = config_.costs;
  reint_config.profiler = profiler;
  network_->AddNode("reint",
                    std::make_shared<pipeline::Reintegrator>(reint_config),
                    net::NodePlacement{kServerHost, 1});

  // --- proxies (for on-demand pool creation) ---
  pipeline::ProxyConfig proxy_config;
  proxy_config.host = kServerHost;
  proxy_config.pool_policy = config_.policy;
  proxy_config.pool_resort_period = config_.resort_period;
  proxy_config.costs = config_.costs;
  proxy_config.profiler = profiler;
  proxy_config.recorder = recorder;
  proxy_ = std::make_shared<pipeline::ProxyServer>(
      proxy_config, network_.get(), &database_, dir_api_, &shadows_,
      &policies_);
  network_->AddNode("proxy", proxy_, net::NodePlacement{kServerHost, 1});

  // --- pool managers ---
  // On a dual-site deployment odd-numbered stages run on the remote
  // host, registering and resolving through their own site's replica —
  // the failover path queries take when the WAN is cut.
  std::vector<net::Address> pm_addresses;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config_.pool_managers);
       ++i) {
    const bool remote = dual_site && i % 2 == 1;
    const char* host = remote ? kRemoteHost : kServerHost;
    const std::string& site = remote ? client_site : server_site;
    directory::DirectoryApi* dir = remote ? remote_api : dir_api_;
    pipeline::PoolManagerConfig pm_config;
    pm_config.name = "pm" + std::to_string(i);
    pm_config.proxies = {"proxy"};
    pm_config.reintegrator = "reint";
    pm_config.allow_create = !config_.precreate_pools;
    pm_config.costs = config_.costs;
    pm_config.profiler = profiler;
    const net::Address address = pm_config.name;
    network_->AddNode(address,
                      std::make_shared<pipeline::PoolManager>(pm_config, dir),
                      net::NodePlacement{host, 1});
    pm_addresses.push_back(address);
    fault_->RegisterService(
        address, [this, address] { network_->RemoveNode(address); },
        [this, address, pm_config, host, dir] {
          network_->AddNode(
              address,
              std::make_shared<pipeline::PoolManager>(pm_config, dir),
              net::NodePlacement{host, 1});
        },
        site);
  }

  // --- query managers ---
  std::vector<net::Address> qm_addresses;
  for (std::size_t i = 0;
       i < std::max<std::size_t>(1, config_.query_managers); ++i) {
    const bool remote = dual_site && i % 2 == 1;
    const char* host = remote ? kRemoteHost : kServerHost;
    const std::string& site = remote ? client_site : server_site;
    pipeline::QueryManagerConfig qm_config;
    qm_config.name = "qm" + std::to_string(i);
    qm_config.default_pool_managers = pm_addresses;
    qm_config.reintegrator = "reint";
    qm_config.qos_fanout = config_.qos_fanout;
    qm_config.costs = config_.costs;
    qm_config.profiler = profiler;
    const net::Address address = qm_config.name;
    network_->AddNode(address,
                      std::make_shared<pipeline::QueryManager>(qm_config),
                      net::NodePlacement{host, 1});
    qm_addresses.push_back(address);
    fault_->RegisterService(
        address, [this, address] { network_->RemoveNode(address); },
        [this, address, qm_config, host] {
          network_->AddNode(address,
                            std::make_shared<pipeline::QueryManager>(qm_config),
                            net::NodePlacement{host, 1});
        },
        site);
  }

  // --- resource pools ---
  workload::QuerySpec query_spec;
  query_spec.cluster_count = std::max<std::size_t>(1, config_.clusters);
  query_spec.hot_fraction = config_.hot_fraction;
  workload::QueryGenerator generator(query_spec);

  // Creates a pool node, tracks it for stats, and registers it with the
  // fault injector: a crash removes the node, unregisters it from the
  // directory (its own side's replica, when replicated), and frees its
  // claim once the last live instance is gone (surviving replicas keep
  // the shared machine set); a restart brings up a fresh instance that
  // re-adopts or re-claims its machines. On a dual-site deployment the
  // caller picks the host, and the pool registers through that site's
  // directory handle — which is what lets registrations made during a
  // partition reconcile after heal.
  auto add_pool = [&, this](const net::Address& address,
                            const pipeline::ResourcePoolConfig& pool_config,
                            bool remote) {
    const char* host = remote ? kRemoteHost : kServerHost;
    const std::string& site = remote ? client_site : server_site;
    directory::DirectoryApi* dir = remote ? remote_api : dir_api_;
    auto pool = std::make_shared<pipeline::ResourcePool>(
        pool_config, &database_, dir, &shadows_, &policies_);
    pools_.push_back(pool);
    pool_by_address_[address] = pool;
    network_->AddNode(address, pool, net::NodePlacement{host, 1});
    const std::string claim = pool_config.claim_name.empty()
                                  ? pool_config.pool_name
                                  : pool_config.claim_name;
    fault_->RegisterService(
        address,
        [this, address, pool_name = pool_config.pool_name,
         instance = pool_config.instance, claim,
         segment = pool_config.segment, dir] {
          network_->RemoveNode(address);
          dir->UnregisterPool(pool_name, instance);
          // A segment's claim is its own (distinct claim names partition
          // the machines), so free it immediately; replicas share one
          // claim that must survive until the last live instance dies.
          if (segment || dir->Lookup(pool_name).empty()) {
            database_.ReleaseAllFrom(claim);
          }
        },
        [this, address, pool_config, host, dir] {
          auto restarted = std::make_shared<pipeline::ResourcePool>(
              pool_config, &database_, dir, &shadows_, &policies_);
          pools_.push_back(restarted);
          pool_by_address_[address] = restarted;
          network_->AddNode(address, restarted,
                            net::NodePlacement{host, 1});
        },
        site);
  };

  if (config_.precreate_pools) {
    const std::size_t clusters = std::max<std::size_t>(1, config_.clusters);
    const std::uint32_t segments =
        std::max<std::uint32_t>(1, config_.pool_segments);
    const std::uint32_t replicas =
        std::max<std::uint32_t>(1, config_.pool_replicas);
    for (std::size_t c = 0; c < clusters; ++c) {
      auto criteria = query::Parser::ParseBasic(generator.ForCluster(c));
      // Strip appl/user terms: aggregation criteria are rsrc-only.
      query::Query pool_criteria(criteria->family());
      for (const auto& [name, cond] : criteria->rsrc()) {
        pool_criteria.SetRsrc(name, cond);
      }
      const std::string pool_name = pool_criteria.PoolName();
      const std::size_t per_cluster = config_.machines / clusters;

      if (segments > 1) {
        // Split pool: disjoint partitions under distinct claim names.
        for (std::uint32_t s = 0; s < segments; ++s) {
          pipeline::ResourcePoolConfig pool_config;
          pool_config.pool_name = pool_name;
          pool_config.instance = s;
          pool_config.instance_count = 1;
          pool_config.claim_name = pool_name + "#" + std::to_string(s);
          pool_config.segment = true;
          pool_config.criteria = pool_criteria;
          pool_config.policy = config_.policy;
          pool_config.resort_period = config_.resort_period;
          pool_config.claim_limit =
              s + 1 == segments ? 0 : per_cluster / segments;
          pool_config.costs = config_.costs;
          pool_config.profiler = profiler;
          pool_config.recorder = recorder;
          add_pool("pool.c" + std::to_string(c) + ".s" + std::to_string(s),
                   pool_config, /*remote=*/false);
        }
      } else {
        // Replicated (or single) pool: shared machine set, biased
        // selection per instance. Odd instances run on the remote host
        // of a dual-site deployment.
        for (std::uint32_t r = 0; r < replicas; ++r) {
          pipeline::ResourcePoolConfig pool_config;
          pool_config.pool_name = pool_name;
          pool_config.instance = r;
          pool_config.instance_count = replicas;
          pool_config.criteria = pool_criteria;
          pool_config.policy = config_.policy;
          pool_config.resort_period = config_.resort_period;
          pool_config.costs = config_.costs;
          pool_config.profiler = profiler;
          pool_config.recorder = recorder;
          add_pool("pool.c" + std::to_string(c) + ".r" + std::to_string(r),
                   pool_config, /*remote=*/dual_site && r % 2 == 1);
        }
      }
    }
  }

  // --- clients ---
  for (std::size_t i = 0; i < config_.clients; ++i) {
    workload::ClientConfig client_config;
    client_config.client_id = static_cast<std::uint32_t>(i + 1);
    client_config.entry = qm_addresses[i % qm_addresses.size()];
    // Retries rotate across the other query managers, so a dead entry
    // stage costs one backoff, not the whole interaction.
    for (std::size_t k = 1; k < qm_addresses.size(); ++k) {
      client_config.fallback_entries.push_back(
          qm_addresses[(i + k) % qm_addresses.size()]);
    }
    client_config.make_query = [generator](Rng& rng) {
      return generator.Next(rng);
    };
    client_config.think_time = config_.think_time;
    client_config.job_duration = config_.job_duration;
    client_config.collector = &collector_;
    client_config.profiler = profiler;
    client_config.qos_first_match = config_.qos_first_match;
    client_config.request_timeout = config_.client_request_timeout;
    client_config.retry_max = config_.retry_max;
    client_config.retry_backoff = config_.retry_backoff;
    client_config.horizon = config_.client_horizon;
    auto client = std::make_shared<workload::ClientNode>(client_config);
    clients_.push_back(client);
    network_->AddNode("client" + std::to_string(i), client,
                      net::NodePlacement{kClientHost, 1});
  }

  // --- fault plan (after every service is registered) ---
  fault_status_ = fault_->Arm(config_.fault_plan);
  if (!fault_status_.ok()) {
    ACTYP_WARN << "scenario: fault plan not armed: "
               << fault_status_.ToString();
  }

  // Convergence bookkeeping: converge_time measures from the moment a
  // disruption heals. Only partition heals need a scenario-level hook —
  // replica restores (direct churn or via a site restore) notify the
  // group through ReplicaGroup::Restore itself.
  if (replicas_ && fault_status_.ok()) {
    for (const fault::FaultEvent& event : config_.fault_plan.events) {
      if (event.kind == fault::FaultKind::kPartition &&
          event.end > event.start) {
        kernel_.ScheduleAt(event.end,
                           [this] { replicas_->NoteDisruption(); });
      }
    }
  }
}

void SimScenario::BuildMultiSite() {
  const std::size_t site_count = config_.wan_sites;
  const std::size_t clusters = std::max<std::size_t>(1, config_.clusters);
  kernel_.Reserve(config_.clients * 4 + config_.machines / 8 + 64);

  // --- topology and sharded network ---
  // Full WAN mesh: every distinct site pair gets the configured one-way
  // latency. The positive base latency is the conservative lookahead.
  simnet::Topology topology = simnet::Topology::Lan();
  topology.SetDefaultInterSiteLink(
      simnet::LinkSpec{config_.wan_one_way, config_.wan_jitter, 1.25});
  network_ = std::make_unique<simnet::SimNetwork>(&kernel_, topology,
                                                  config_.seed ^ 0x6e0d3ULL);
  network_->SetLossProbability(config_.message_loss_probability);
  std::vector<std::string> site_names;
  site_names.reserve(site_count);
  for (std::size_t k = 0; k < site_count; ++k) {
    site_names.push_back("site" + std::to_string(k));
  }
  network_->EnableSharding(site_names);

  // One flight recorder per shard, so recording stays thread-local to
  // the shard's worker; snapshots merge by (t, shard, seq) and are
  // identical for any cell_jobs value.
  if (config_.flight_recorder) {
    for (std::size_t k = 0; k < site_count; ++k) {
      recorders_.push_back(std::make_unique<obs::FlightRecorder>(
          static_cast<std::uint32_t>(k), config_.flight_capacity));
      network_->SetFlightRecorder(k, recorders_.back().get());
    }
  }

  // The injector is still built (the accessors promise one), but LP
  // eligibility guarantees an empty plan, so its hooks — which close
  // over the unused single-site database — never fire.
  fault_ = std::make_unique<fault::FaultInjector>(
      &kernel_, network_.get(), config_.seed ^ 0xfa017ULL);
  InstallFaultHooks();
  for (const std::string& name : site_names) fault_->RegisterSite(name);
  fault_status_ = fault_->Arm(config_.fault_plan);
  dir_api_ = &directory_;

  // Exact per-cluster machine counts (machine i of the single-site
  // build lands in cluster i % clusters).
  auto cluster_size = [&](std::size_t c) {
    return config_.machines / clusters +
           (c < config_.machines % clusters ? 1 : 0);
  };
  auto owner_of = [&](std::size_t c) { return c % site_count; };
  auto clients_on = [&](std::size_t k) {
    return config_.clients / site_count +
           (k < config_.clients % site_count ? 1 : 0);
  };

  workload::QuerySpec query_spec;
  query_spec.cluster_count = clusters;
  query_spec.hot_fraction = config_.hot_fraction;
  workload::QueryGenerator generator(query_spec);

  // --- pass 1: per-site stacks, fleets, and pool managers ---
  // Build order is fixed (site 0, 1, ...), so every rng_ draw below is
  // deterministic; nothing here runs under the LP engine yet.
  for (std::size_t k = 0; k < site_count; ++k) {
    auto site = std::make_unique<SiteStack>();
    site->site = site_names[k];
    site->server_host = site->site + ".srv";
    site->client_host = site->site + ".cli";
    if (config_.profile) {
      profile::StageProfiler::Config profiler_config;
      profiler_config.ring_capacity = config_.profile_ring_capacity;
      site->profiler =
          std::make_unique<profile::StageProfiler>(profiler_config);
    }
    profile::StageProfiler* profiler = site->profiler.get();
    network_->AddHost(site->server_host, config_.server_cores, site->site);
    network_->AddHost(
        site->client_host,
        static_cast<int>(std::max<std::size_t>(1, clients_on(k))),
        site->site);

    // This site's slice of the fleet: the clusters it owns, with the
    // same per-cluster machine counts as the single-site build. The
    // site-qualified domain keeps machine names globally unique.
    workload::FleetSpec fleet;
    fleet.domain = site->site;
    fleet.cluster_count = clusters;
    fleet.machine_count = 0;
    for (std::size_t c = k; c < clusters; c += site_count) {
      fleet.cluster_ids.push_back(c);
      fleet.machine_count += cluster_size(c);
    }
    BuildFleet(fleet, rng_, &site->database, &site->shadows);
    auto& machine_ids = site_machines_[site->site];
    machine_ids.clear();
    site->database.VisitAll([&machine_ids](const db::MachineRecord& rec) {
      machine_ids.push_back(rec.id);
    });

    site->monitor = std::make_unique<monitor::ResourceMonitor>(
        &site->database, monitor::MonitorConfig{}, rng_.Fork());
    network_->AddNode(
        site->site + ".monitor",
        std::make_shared<MonitorNode>(site->monitor.get(),
                                      config_.monitor_period, profiler),
        net::NodePlacement{site->server_host, 1});

    pipeline::ReintegratorConfig reint_config;
    reint_config.name = site->site + ".reint";
    reint_config.costs = config_.costs;
    reint_config.profiler = profiler;
    network_->AddNode(reint_config.name,
                      std::make_shared<pipeline::Reintegrator>(reint_config),
                      net::NodePlacement{site->server_host, 1});

    pipeline::ProxyConfig proxy_config;
    proxy_config.host = site->server_host;
    proxy_config.pool_policy = config_.policy;
    proxy_config.pool_resort_period = config_.resort_period;
    proxy_config.costs = config_.costs;
    proxy_config.profiler = profiler;
    proxy_config.recorder =
        config_.flight_recorder ? recorders_[k].get() : nullptr;
    site->proxy = std::make_shared<pipeline::ProxyServer>(
        proxy_config, network_.get(), &site->database, &site->directory,
        &site->shadows, &site->policies);
    network_->AddNode(site->site + ".proxy", site->proxy,
                      net::NodePlacement{site->server_host, 1});

    for (std::size_t i = 0;
         i < std::max<std::size_t>(1, config_.pool_managers); ++i) {
      pipeline::PoolManagerConfig pm_config;
      pm_config.name = site->site + ".pm" + std::to_string(i);
      pm_config.proxies = {site->site + ".proxy"};
      pm_config.reintegrator = site->site + ".reint";
      pm_config.allow_create = false;  // LP mode requires precreate
      pm_config.costs = config_.costs;
      pm_config.profiler = profiler;
      network_->AddNode(pm_config.name,
                        std::make_shared<pipeline::PoolManager>(
                            pm_config, &site->directory),
                        net::NodePlacement{site->server_host, 1});
      site->pm_addresses.push_back(pm_config.name);
    }
    sites_.push_back(std::move(site));
  }

  // --- pass 2: query managers, pools, clients ---
  // Needs every site's pool-manager addresses: each QM routes cluster c
  // to the owner site's pool managers via a per-cluster rule, which is
  // what generates the cross-WAN traffic the LP engine synchronizes.
  for (std::size_t k = 0; k < site_count; ++k) {
    SiteStack& site = *sites_[k];
    profile::StageProfiler* profiler = site.profiler.get();
    obs::FlightRecorder* site_recorder =
        config_.flight_recorder ? recorders_[k].get() : nullptr;
    std::vector<pipeline::PmRule> rules;
    rules.reserve(clusters);
    for (std::size_t c = 0; c < clusters; ++c) {
      rules.push_back(pipeline::PmRule{
          "cluster", "c" + std::to_string(c),
          sites_[owner_of(c)]->pm_addresses});
    }
    for (std::size_t i = 0;
         i < std::max<std::size_t>(1, config_.query_managers); ++i) {
      pipeline::QueryManagerConfig qm_config;
      qm_config.name = site.site + ".qm" + std::to_string(i);
      qm_config.rules = rules;
      qm_config.default_pool_managers = site.pm_addresses;
      qm_config.reintegrator = site.site + ".reint";
      qm_config.qos_fanout = config_.qos_fanout;
      qm_config.costs = config_.costs;
      qm_config.profiler = profiler;
      network_->AddNode(qm_config.name,
                        std::make_shared<pipeline::QueryManager>(qm_config),
                        net::NodePlacement{site.server_host, 1});
      site.qm_addresses.push_back(qm_config.name);
    }

    // Pools for the clusters this site owns, registered in the site's
    // own directory (where its pool managers resolve them).
    const std::uint32_t segments =
        std::max<std::uint32_t>(1, config_.pool_segments);
    const std::uint32_t replicas =
        std::max<std::uint32_t>(1, config_.pool_replicas);
    for (std::size_t c = k; c < clusters; c += site_count) {
      auto criteria = query::Parser::ParseBasic(generator.ForCluster(c));
      query::Query pool_criteria(criteria->family());
      for (const auto& [name, cond] : criteria->rsrc()) {
        pool_criteria.SetRsrc(name, cond);
      }
      const std::string pool_name = pool_criteria.PoolName();
      const std::size_t per_cluster = cluster_size(c);
      auto add_site_pool =
          [&](const net::Address& address,
              const pipeline::ResourcePoolConfig& pool_config) {
            auto pool = std::make_shared<pipeline::ResourcePool>(
                pool_config, &site.database, &site.directory, &site.shadows,
                &site.policies);
            pools_.push_back(pool);
            pool_by_address_[address] = pool;
            network_->AddNode(address, pool,
                              net::NodePlacement{site.server_host, 1});
          };
      if (segments > 1) {
        for (std::uint32_t s = 0; s < segments; ++s) {
          pipeline::ResourcePoolConfig pool_config;
          pool_config.pool_name = pool_name;
          pool_config.instance = s;
          pool_config.instance_count = 1;
          pool_config.claim_name = pool_name + "#" + std::to_string(s);
          pool_config.segment = true;
          pool_config.criteria = pool_criteria;
          pool_config.policy = config_.policy;
          pool_config.resort_period = config_.resort_period;
          pool_config.claim_limit =
              s + 1 == segments ? 0 : per_cluster / segments;
          pool_config.costs = config_.costs;
          pool_config.profiler = profiler;
          pool_config.recorder = site_recorder;
          add_site_pool(
              "pool.c" + std::to_string(c) + ".s" + std::to_string(s),
              pool_config);
        }
      } else {
        for (std::uint32_t r = 0; r < replicas; ++r) {
          pipeline::ResourcePoolConfig pool_config;
          pool_config.pool_name = pool_name;
          pool_config.instance = r;
          pool_config.instance_count = replicas;
          pool_config.criteria = pool_criteria;
          pool_config.policy = config_.policy;
          pool_config.resort_period = config_.resort_period;
          pool_config.costs = config_.costs;
          pool_config.profiler = profiler;
          pool_config.recorder = site_recorder;
          add_site_pool(
              "pool.c" + std::to_string(c) + ".r" + std::to_string(r),
              pool_config);
        }
      }
    }
  }

  // --- clients ---
  // Client i lives on site i % K and enters through a local query
  // manager; its queries still stripe across the global cluster space,
  // so a (K-1)/K fraction of requests cross the WAN.
  for (std::size_t i = 0; i < config_.clients; ++i) {
    SiteStack& site = *sites_[i % site_count];
    workload::ClientConfig client_config;
    client_config.client_id = static_cast<std::uint32_t>(i + 1);
    client_config.entry =
        site.qm_addresses[(i / site_count) % site.qm_addresses.size()];
    for (std::size_t j = 1; j < site.qm_addresses.size(); ++j) {
      client_config.fallback_entries.push_back(
          site.qm_addresses[(i / site_count + j) % site.qm_addresses.size()]);
    }
    client_config.make_query = [generator](Rng& rng) {
      return generator.Next(rng);
    };
    client_config.think_time = config_.think_time;
    client_config.job_duration = config_.job_duration;
    client_config.collector = &site.collector;
    client_config.profiler = site.profiler.get();
    client_config.qos_first_match = config_.qos_first_match;
    client_config.request_timeout = config_.client_request_timeout;
    client_config.retry_max = config_.retry_max;
    client_config.retry_backoff = config_.retry_backoff;
    client_config.horizon = config_.client_horizon;
    auto client = std::make_shared<workload::ClientNode>(client_config);
    clients_.push_back(client);
    network_->AddNode("client" + std::to_string(i), client,
                      net::NodePlacement{site.client_host, 1});
  }
}

void SimScenario::InstallFaultHooks() {
  // Machine churn: crash picks uniformly among currently-up machines
  // and flips them down in the white pages; pools notice on their next
  // refresh sweep and stop handing them out until they come back.
  fault_->SetMachineHooks(
      [this](std::size_t n, Rng& rng) {
        std::vector<db::MachineId> up;
        database_.VisitAll([&up](const db::MachineRecord& rec) {
          if (rec.state == db::MachineState::kUp) up.push_back(rec.id);
        });
        std::vector<db::MachineId> victims;
        victims.reserve(std::min(n, up.size()));
        for (std::size_t k = 0; k < n && !up.empty(); ++k) {
          const std::size_t i =
              static_cast<std::size_t>(rng.NextBounded(up.size()));
          victims.push_back(up[i]);
          up[i] = up.back();
          up.pop_back();
        }
        for (const db::MachineId id : victims) {
          database_.Update(id, [](db::MachineRecord& rec) {
            rec.state = db::MachineState::kDown;
          });
        }
        return victims;
      },
      [this](const std::vector<db::MachineId>& ids) {
        for (const db::MachineId id : ids) {
          database_.Update(id, [](db::MachineRecord& rec) {
            rec.state = db::MachineState::kUp;
          });
        }
      });

  // Pool churn: kill a random live instance straight out of the
  // directory — this also covers pools the proxy created on demand,
  // which the injector cannot know by name at build time. dir_api_ is
  // resolved at strike time: the server side's view when replicated.
  fault_->SetPoolHook([this](Rng& rng) {
    std::vector<directory::PoolInstance> instances;
    for (const std::string& name : dir_api_->PoolNames()) {
      for (auto& instance : dir_api_->Lookup(name)) {
        instances.push_back(std::move(instance));
      }
    }
    if (instances.empty()) return false;
    const directory::PoolInstance& victim =
        instances[rng.NextBounded(instances.size())];
    network_->RemoveNode(victim.address);
    dir_api_->UnregisterPool(victim.pool_name, victim.instance);
    // Proxy-created pools and replicas claim under the pool name
    // (freed when the last live instance dies, so the next query can
    // re-create the pool from scratch); a segment claims under the
    // "<pool>#<instance>" name Build assigned it and owns that claim
    // alone, so it is freed immediately.
    if (victim.segment) {
      database_.ReleaseAllFrom(victim.pool_name + "#" +
                               std::to_string(victim.instance));
    } else if (dir_api_->Lookup(victim.pool_name).empty()) {
      database_.ReleaseAllFrom(victim.pool_name);
    }
    return true;
  });

  // Correlated site faults: crash every up machine assigned to the
  // site; services follow through the site recorded at registration.
  fault_->SetSiteHook([this](const std::string& site) {
    std::vector<db::MachineId> victims;
    const auto it = site_machines_.find(site);
    if (it == site_machines_.end()) return victims;
    database_.VisitRecords(
        it->second, [&victims](std::size_t, const db::MachineRecord* rec) {
          if (rec != nullptr && rec->state == db::MachineState::kUp) {
            victims.push_back(rec->id);
          }
        });
    for (const db::MachineId id : victims) {
      database_.Update(id, [](db::MachineRecord& rec) {
        rec.state = db::MachineState::kDown;
      });
    }
    return victims;
  });
}

void SimScenario::RunUntil(SimTime until) {
  if (network_ != nullptr && network_->sharded()) {
    ThreadPool* pool = nullptr;
    if (config_.cell_jobs > 1) {
      if (!window_pool_) {
        window_pool_ = std::make_unique<ThreadPool>(
            std::min(config_.cell_jobs, network_->shard_count()));
      }
      pool = window_pool_.get();
    }
    network_->RunShardedUntil(until, pool);
    return;
  }
  kernel_.RunUntil(until);
}

void SimScenario::ResetMeasurement() {
  collector_.Reset();
  if (profiler_) profiler_->Reset();
  for (const auto& site : sites_) {
    site->collector.Reset();
    if (site->profiler) site->profiler->Reset();
  }
}

void SimScenario::Measure(SimDuration warmup, SimDuration duration,
                          const std::vector<Sampler>& samplers) {
  RunUntil(kernel_.Now() + warmup);
  ResetMeasurement();
  for (const auto& recorder : recorders_) recorder->Reset();
  // Each sampler's boundaries are absolute offsets from the window
  // start, so its grid is drift-free however its interval divides
  // duration; a switched-off sampler is never due.
  const SimTime start = kernel_.Now();
  const SimTime end = start + duration;
  std::vector<SimTime> due(samplers.size(),
                           std::numeric_limits<SimTime>::max());
  for (std::size_t i = 0; i < samplers.size(); ++i) {
    if (samplers[i].interval <= 0 || !samplers[i].sample) continue;
    samplers[i].sample(start);
    due[i] = std::min<SimTime>(end, start + samplers[i].interval);
  }
  for (SimTime now = start; now < end;) {
    now = end;
    for (const SimTime at : due) now = std::min(now, at);
    RunUntil(now);
    for (std::size_t i = 0; i < samplers.size(); ++i) {
      if (due[i] != now) continue;
      samplers[i].sample(now);
      due[i] = std::min<SimTime>(end, now + samplers[i].interval);
    }
  }
}

std::vector<obs::FlightEvent> SimScenario::FlightSnapshot() const {
  std::vector<std::vector<obs::FlightEvent>> per_shard;
  per_shard.reserve(recorders_.size());
  for (const auto& recorder : recorders_) {
    per_shard.push_back(recorder->Snapshot());
  }
  return obs::MergeFlightEvents(std::move(per_shard));
}

workload::ResponseCollector& SimScenario::collector() {
  if (sites_.empty()) return collector_;
  merged_collector_.Reset();
  for (const auto& site : sites_) {
    merged_collector_.MergeFrom(site->collector);
  }
  return merged_collector_;
}

std::uint64_t SimScenario::total_events() const {
  return network_ != nullptr && network_->sharded()
             ? network_->total_executed()
             : kernel_.executed();
}

profile::StageProfiler* SimScenario::MergedProfiler() const {
  if (sites_.empty()) return profiler_.get();
  if (!config_.profile) return nullptr;
  if (!merged_profiler_) {
    profile::StageProfiler::Config merged_config;
    merged_config.ring_capacity =
        config_.profile_ring_capacity * sites_.size();
    merged_profiler_ =
        std::make_unique<profile::StageProfiler>(merged_config);
  }
  merged_profiler_->Reset();
  for (const auto& site : sites_) {
    merged_profiler_->Merge(*site->profiler);
    merged_profiler_->AbsorbRing(*site->profiler);
  }
  return merged_profiler_.get();
}

pipeline::PoolStats SimScenario::TotalPoolStats() const {
  pipeline::PoolStats total;
  for (const auto& pool : pools_) {
    const auto& s = pool->stats();
    total.queries += s.queries;
    total.allocations += s.allocations;
    total.failures += s.failures;
    total.releases += s.releases;
    total.oversubscribed += s.oversubscribed;
    total.entries_examined += s.entries_examined;
    total.entries_refreshed += s.entries_refreshed;
    total.refresh_ticks += s.refresh_ticks;
  }
  return total;
}

std::vector<std::pair<std::string, const pipeline::ResourcePool*>>
SimScenario::LivePools() const {
  std::vector<std::pair<std::string, const pipeline::ResourcePool*>> live;
  live.reserve(pool_by_address_.size());
  for (const auto& [address, pool] : pool_by_address_) {
    if (network_ != nullptr && network_->HasNode(address)) {
      live.emplace_back(address, pool.get());
    }
  }
  return live;
}

pipeline::ProxyStats SimScenario::proxy_stats() const {
  pipeline::ProxyStats total =
      proxy_ != nullptr ? proxy_->stats() : pipeline::ProxyStats{};
  for (const auto& site : sites_) {
    const pipeline::ProxyStats s = site->proxy->stats();
    total.pools_created += s.pools_created;
    total.create_failures += s.create_failures;
  }
  return total;
}

std::uint64_t SimScenario::total_client_failures() const {
  std::uint64_t n = 0;
  for (const auto& client : clients_) n += client->stats().failures;
  return n;
}

std::uint64_t SimScenario::total_client_retries() const {
  std::uint64_t n = 0;
  for (const auto& client : clients_) n += client->stats().retries;
  return n;
}

}  // namespace actyp
