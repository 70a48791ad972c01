#include "actyp/scenario.hpp"

#include <algorithm>
#include <limits>

#include "actyp/monitor_node.hpp"
#include "common/logging.hpp"
#include "query/parser.hpp"

namespace actyp {
namespace {

constexpr const char* kServerHost = "alpha";
// Cores of every server host: the paper's 12-processor Alpha server.
constexpr int kServerCores = 12;
constexpr const char* kClientHost = "clients";
// Second server host, added on the client site when the directory is
// replicated across a WAN so both sides of a partition keep a full
// service stack (replica + pool manager + query manager + pools).
constexpr const char* kRemoteHost = "beta";

// Retires a dead pool instance: drops its directory registration, then
// frees its claim when the claim is its own (a segment's) or the pool's
// last live instance is gone (every other instance shares the pool
// name's claim, which must survive while a sibling holds it).
void RetirePool(const std::string& pool_name, std::uint32_t instance,
                bool segment, directory::DirectoryApi* dir,
                db::ResourceDatabase* database) {
  dir->UnregisterPool(pool_name, instance);
  if (segment) {
    database->ReleaseAllFrom(pipeline::SegmentClaimName(pool_name, instance));
  } else if (dir->Lookup(pool_name).empty()) {
    database->ReleaseAllFrom(pool_name);
  }
}

}  // namespace

// One service stack: white pages, shadow accounts, monitor,
// reintegrator, proxy, pool managers, query managers and the pools of
// the clusters it owns, with the collector and profiler its nodes
// record into. A serial build has one stack; an LP build has one per
// WAN site, and each stack's mutable state is reached only from nodes
// hosted on its site, which is what lets the site run as a logical
// process sharing no state with its peers.
struct SimScenario::ServiceStack {
  std::string prefix;  // node-name prefix: "" or "site<k>."
  std::string server_host;
  std::string client_host;
  std::string server_site;
  std::string client_site;
  std::unique_ptr<profile::StageProfiler> profiler;
  obs::FlightRecorder* recorder = nullptr;
  db::ResourceDatabase database;
  db::ShadowAccountRegistry shadows;
  db::PolicyRegistry policies;
  directory::DirectoryService directory;
  // Where the server host's stages register and look up: `directory`,
  // or the server site's replica handle when the directory is
  // replicated.
  directory::DirectoryApi* dir_api = nullptr;
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
  // --- LP-parallel eligibility: decides only the stack count ---
  // Multi-site sharding is a scenario property: every shard-local
  // invariant below (per-site databases, per-site draws, lookahead > 0)
  // must hold by construction, so configs that would break one fall
  // back to the one-stack serial build with a warning instead of
  // running a subtly wrong parallel simulation.
  std::size_t stack_count = 1;
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
      stack_count = config_.wan_sites;
    } else {
      ACTYP_WARN << "scenario: LP sharding disabled (" << reason
                 << "); falling back to the single-site serial build";
    }
  }
  const bool lp = stack_count > 1;
  const std::size_t clusters = std::max<std::size_t>(1, config_.clusters);
  // Exact machine count of cluster c (machine i lands in cluster
  // i % clusters).
  const auto cluster_size = [&](std::size_t c) {
    return config_.machines / clusters +
           (c < config_.machines % clusters ? 1 : 0);
  };

  // Typical concurrent event population: one or two timers per client
  // plus per-node ticks; pre-sizing avoids slab growth mid-run.
  kernel_.Reserve(config_.clients * 4 + config_.machines / 8 + 64);

  // --- topology ---
  // LP: a full WAN mesh whose positive base latency is the conservative
  // lookahead, one shard per site. Serial: one LAN, or the paper's
  // two-site WAN with clients at Purdue and the server at UPC.
  simnet::Topology topology = simnet::Topology::Lan();
  if (lp) {
    topology.SetDefaultInterSiteLink(
        simnet::LinkSpec{config_.wan_one_way, config_.wan_jitter, 1.25});
  } else if (config_.wan) {
    topology = simnet::Topology::WanTwoSites(
        "purdue", "upc", config_.wan_one_way, config_.wan_jitter);
  }
  network_ = std::make_unique<simnet::SimNetwork>(&kernel_, topology,
                                                  config_.seed ^ 0x6e0d3ULL);
  network_->SetLossProbability(config_.message_loss_probability);
  std::vector<std::string> site_names;
  if (lp) {
    for (std::size_t k = 0; k < stack_count; ++k) {
      site_names.push_back("site" + std::to_string(k));
    }
    network_->EnableSharding(site_names);
  }

  // --- flight recorders ---
  // One per shard, so recording stays thread-local to the shard's
  // worker; snapshots merge by (t, shard, seq) and are identical for any
  // cell_jobs value. Off, every recording site reduces to a pointer
  // test and the run is the seed path byte for byte.
  if (config_.flight_recorder) {
    for (std::size_t k = 0; k < stack_count; ++k) {
      recorders_.push_back(std::make_unique<obs::FlightRecorder>(
          static_cast<std::uint32_t>(k), config_.flight_capacity));
      network_->SetFlightRecorder(k, recorders_.back().get());
    }
  }

  fault_ = std::make_unique<fault::FaultInjector>(
      &kernel_, network_.get(), config_.seed ^ 0xfa017ULL);
  fault_->SetRecorder(recorders_.empty() ? nullptr : recorders_[0].get());

  // --- stacks and hosts ---
  for (std::size_t k = 0; k < stack_count; ++k) {
    auto stack = std::make_unique<ServiceStack>();
    if (lp) {
      stack->prefix = site_names[k] + ".";
      stack->server_host = site_names[k] + ".srv";
      stack->client_host = site_names[k] + ".cli";
      stack->server_site = stack->client_site = site_names[k];
    } else {
      stack->server_host = kServerHost;
      stack->client_host = kClientHost;
      stack->server_site = config_.wan ? "upc" : "local";
      stack->client_site = config_.wan ? "purdue" : "local";
    }
    // Built first so every stage config below can carry the raw pointer
    // (it outlives the network and any fault-restart config copies).
    // When profiling is off the pointer stays null and every hook
    // reduces to a pointer test: the seed path, byte for byte.
    if (config_.profile) {
      profile::StageProfiler::Config profiler_config;
      profiler_config.ring_capacity = config_.profile_ring_capacity;
      stack->profiler =
          std::make_unique<profile::StageProfiler>(profiler_config);
    }
    stack->recorder = config_.flight_recorder ? recorders_[k].get() : nullptr;
    stack->dir_api = &stack->directory;
    fault_->RegisterSite(stack->server_site);
    fault_->RegisterSite(stack->client_site);
    const std::size_t clients_here =
        config_.clients / stack_count +
        (k < config_.clients % stack_count ? 1 : 0);
    network_->AddHost(stack->server_host, kServerCores,
                      stack->server_site);
    network_->AddHost(stack->client_host,
                      static_cast<int>(std::max<std::size_t>(1, clients_here)),
                      stack->client_site);
    stacks_.push_back(std::move(stack));
  }
  InstallFaultHooks();

  // --- replicated directory (one-stack builds only) ---
  ServiceStack& home = *stacks_.front();
  const bool replicated = config_.directory_replicas > 1;
  const bool dual_site = replicated && config_.wan;
  if (dual_site) {
    network_->AddHost(kRemoteHost, kServerCores, home.client_site);
  }
  if (replicated) {
    replica::ReplicaGroupConfig group_config;
    group_config.sync_period = config_.directory_sync_period;
    group_config.journal_capacity = config_.directory_journal_capacity;
    group_config.seed = config_.seed ^ 0x5e11caULL;
    group_config.profiler = home.profiler.get();
    group_config.recorder = home.recorder;
    replicas_ = std::make_unique<replica::ReplicaGroup>(&kernel_,
                                                        group_config);
    for (std::uint32_t i = 0; i < config_.directory_replicas; ++i) {
      // Even replicas at the server site, odd ones at the client site
      // (every replica is "local" on a LAN).
      replicas_->AddReplica(i % 2 == 0 ? home.server_site : home.client_site);
    }
    replicas_->SetReachability(
        [this](const std::string& a, const std::string& b) {
          return !network_->topology().IsSitePartitioned(a, b);
        });
    server_directory_ = std::make_unique<replica::ReplicaHandle>(
        replicas_.get(), home.server_site);
    remote_directory_ = std::make_unique<replica::ReplicaHandle>(
        replicas_.get(), home.client_site);
    home.dir_api = server_directory_.get();
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

  // Where a stage of `stack` runs. On a dual-site deployment the
  // odd-numbered stages run on the remote host, registering and
  // resolving through their own site's replica — the failover path
  // queries take when the WAN is cut.
  struct Placement {
    std::string host;
    std::string site;
    directory::DirectoryApi* dir;
  };
  const auto place = [&](const ServiceStack& stack, bool remote) {
    return dual_site && remote
               ? Placement{kRemoteHost, stack.client_site,
                           remote_directory_.get()}
               : Placement{stack.server_host, stack.server_site,
                           stack.dir_api};
  };
  // Registers a node the fault plan can crash (remove) and restart
  // (`make` builds the fresh instance) by address.
  const auto add_service = [this](const net::Address& address,
                                   const Placement& at,
                                   std::function<std::shared_ptr<net::Node>()>
                                       make,
                                   std::function<void()> on_crash = {}) {
    network_->AddNode(address, make(), net::NodePlacement{at.host, 1});
    fault_->RegisterService(
        address,
        [this, address, on_crash] {
          network_->RemoveNode(address);
          if (on_crash) on_crash();
        },
        [this, address, host = at.host, make] {
          network_->AddNode(address, make(), net::NodePlacement{host, 1});
        },
        at.site);
  };

  // --- per stack: fleet, monitor, reintegrator, proxy, pool managers ---
  // Stack k owns the clusters c with c % K == k, with the exact
  // per-cluster machine counts of a one-stack fleet. An LP stack's
  // site-qualified domain keeps machine names globally unique.
  for (std::size_t k = 0; k < stack_count; ++k) {
    ServiceStack& stack = *stacks_[k];
    profile::StageProfiler* profiler = stack.profiler.get();
    workload::FleetSpec fleet;
    if (lp) fleet.domain = site_names[k];
    fleet.cluster_count = clusters;
    fleet.machine_count = 0;
    for (std::size_t c = k; c < clusters; c += stack_count) {
      fleet.cluster_ids.push_back(c);
      fleet.machine_count += cluster_size(c);
    }
    BuildFleet(fleet, rng_, &stack.database, &stack.shadows);

    // Machines alternate between the server and client sites (the same
    // site on a LAN or an LP stack), so correlated site-crash events
    // know which part of the fleet goes dark together.
    std::size_t machine_index = 0;
    stack.database.VisitAll([&](const db::MachineRecord& rec) {
      const std::string& site =
          machine_index++ % 2 == 1 ? stack.client_site : stack.server_site;
      site_machines_[site].push_back(rec.id);
    });

    stack.monitor = std::make_unique<monitor::ResourceMonitor>(
        &stack.database, monitor::MonitorConfig{}, rng_.Fork());
    network_->AddNode(stack.prefix + "monitor",
                      std::make_shared<MonitorNode>(
                          stack.monitor.get(), config_.monitor_period,
                          profiler),
                      net::NodePlacement{stack.server_host, 1});

    pipeline::ReintegratorConfig reint_config;
    reint_config.name = stack.prefix + "reint";
    reint_config.costs = config_.costs;
    reint_config.profiler = profiler;
    network_->AddNode(reint_config.name,
                      std::make_shared<pipeline::Reintegrator>(reint_config),
                      net::NodePlacement{stack.server_host, 1});

    // The proxy creates pools on demand.
    pipeline::ProxyConfig proxy_config;
    proxy_config.host = stack.server_host;
    proxy_config.pool_policy = config_.policy;
    proxy_config.pool_resort_period = config_.resort_period;
    proxy_config.costs = config_.costs;
    proxy_config.profiler = profiler;
    proxy_config.recorder = stack.recorder;
    stack.proxy = std::make_shared<pipeline::ProxyServer>(
        proxy_config, network_.get(), &stack.database, stack.dir_api,
        &stack.shadows, &stack.policies);
    network_->AddNode(stack.prefix + "proxy", stack.proxy,
                      net::NodePlacement{stack.server_host, 1});

    for (std::size_t i = 0;
         i < std::max<std::size_t>(1, config_.pool_managers); ++i) {
      const Placement at = place(stack, i % 2 == 1);
      pipeline::PoolManagerConfig pm_config;
      pm_config.name = stack.prefix + "pm" + std::to_string(i);
      pm_config.proxies = {stack.prefix + "proxy"};
      pm_config.reintegrator = reint_config.name;
      pm_config.allow_create = !config_.precreate_pools;
      pm_config.costs = config_.costs;
      pm_config.profiler = profiler;
      add_service(pm_config.name, at, [pm_config, dir = at.dir] {
        return std::make_shared<pipeline::PoolManager>(pm_config, dir);
      });
      stack.pm_addresses.push_back(pm_config.name);
    }
  }

  // --- per stack: query managers, then its clusters' pools ---
  // With K >= 2 stacks each QM routes cluster c to the owner stack's
  // pool managers, which is the cross-WAN traffic the LP engine
  // synchronizes; one stack routes everything to its own.
  std::vector<pipeline::PmRule> rules;
  if (lp) {
    for (std::size_t c = 0; c < clusters; ++c) {
      rules.push_back(pipeline::PmRule{
          "cluster", "c" + std::to_string(c),
          stacks_[c % stack_count]->pm_addresses});
    }
  }
  workload::QuerySpec query_spec;
  query_spec.cluster_count = clusters;
  query_spec.hot_fraction = config_.hot_fraction;
  workload::QueryGenerator generator(query_spec);
  const std::uint32_t segments =
      std::max<std::uint32_t>(1, config_.pool_segments);
  const std::uint32_t replicas =
      std::max<std::uint32_t>(1, config_.pool_replicas);
  // A pool node is tracked for stats and registered with the fault
  // injector: a crash removes the node, unregisters it from the
  // directory (its own side's replica, when replicated), and frees its
  // claim once the last live instance is gone (surviving replicas keep
  // the shared machine set); a restart brings up a fresh instance that
  // re-adopts or re-claims its machines. Registering through the pool's
  // own side is what lets registrations made during a partition
  // reconcile after heal.
  const auto add_pool = [&](ServiceStack* owner, const net::Address& address,
                            const pipeline::ResourcePoolConfig& pool_config,
                            bool remote) {
    const Placement at = place(*owner, remote);
    add_service(
        address, at,
        [this, address, pool_config, owner, dir = at.dir] {
          auto pool = std::make_shared<pipeline::ResourcePool>(
              pool_config, &owner->database, dir, &owner->shadows,
              &owner->policies);
          pools_.push_back(pool);
          pool_by_address_[address] = pool;
          return pool;
        },
        [pool_name = pool_config.pool_name, instance = pool_config.instance,
         segment = pool_config.segment, dir = at.dir, owner] {
          RetirePool(pool_name, instance, segment, dir, &owner->database);
        });
  };
  for (std::size_t k = 0; k < stack_count; ++k) {
    ServiceStack& stack = *stacks_[k];
    profile::StageProfiler* profiler = stack.profiler.get();
    for (std::size_t i = 0;
         i < std::max<std::size_t>(1, config_.query_managers); ++i) {
      pipeline::QueryManagerConfig qm_config;
      qm_config.name = stack.prefix + "qm" + std::to_string(i);
      qm_config.rules = rules;
      qm_config.default_pool_managers = stack.pm_addresses;
      qm_config.reintegrator = stack.prefix + "reint";
      qm_config.qos_fanout = config_.qos_fanout;
      qm_config.costs = config_.costs;
      qm_config.profiler = profiler;
      add_service(qm_config.name, place(stack, i % 2 == 1), [qm_config] {
        return std::make_shared<pipeline::QueryManager>(qm_config);
      });
      stack.qm_addresses.push_back(qm_config.name);
    }

    if (!config_.precreate_pools) continue;
    for (std::size_t c = k; c < clusters; c += stack_count) {
      auto criteria = query::Parser::ParseBasic(generator.ForCluster(c));
      // Strip appl/user terms: aggregation criteria are rsrc-only.
      query::Query pool_criteria(criteria->family());
      for (const auto& [name, cond] : criteria->rsrc()) {
        pool_criteria.SetRsrc(name, cond);
      }
      const std::string pool_name = pool_criteria.PoolName();
      pipeline::ResourcePoolConfig pool_config;
      pool_config.pool_name = pool_name;
      pool_config.criteria = pool_criteria;
      pool_config.policy = config_.policy;
      pool_config.resort_period = config_.resort_period;
      pool_config.costs = config_.costs;
      pool_config.profiler = profiler;
      pool_config.recorder = stack.recorder;
      const std::string prefix = "pool.c" + std::to_string(c);
      if (segments > 1) {
        // Split pool: disjoint partitions under distinct claim names.
        const std::size_t per_cluster = config_.machines / clusters;
        pool_config.instance_count = 1;
        pool_config.segment = true;
        for (std::uint32_t s = 0; s < segments; ++s) {
          pool_config.instance = s;
          pool_config.claim_name = pipeline::SegmentClaimName(pool_name, s);
          pool_config.claim_limit =
              s + 1 == segments ? 0 : per_cluster / segments;
          add_pool(&stack, prefix + ".s" + std::to_string(s), pool_config,
                   /*remote=*/false);
        }
      } else {
        // Replicated (or single) pool: shared machine set, biased
        // selection per instance. Odd instances run on the remote host
        // of a dual-site deployment.
        pool_config.instance_count = replicas;
        for (std::uint32_t r = 0; r < replicas; ++r) {
          pool_config.instance = r;
          add_pool(&stack, prefix + ".r" + std::to_string(r), pool_config,
                   /*remote=*/r % 2 == 1);
        }
      }
    }
  }

  // --- clients ---
  // Client i lives on stack i % K and enters through one of its query
  // managers, retrying through the others, so a dead entry stage costs
  // one backoff, not the whole interaction. Queries still stripe across
  // the global cluster space, so on an LP build a (K-1)/K fraction of
  // requests cross the WAN.
  for (std::size_t i = 0; i < config_.clients; ++i) {
    ServiceStack& stack = *stacks_[i % stack_count];
    const std::vector<net::Address>& entries = stack.qm_addresses;
    const std::size_t slot = i / stack_count;
    workload::ClientConfig client_config;
    client_config.client_id = static_cast<std::uint32_t>(i + 1);
    client_config.entry = entries[slot % entries.size()];
    for (std::size_t j = 1; j < entries.size(); ++j) {
      client_config.fallback_entries.push_back(
          entries[(slot + j) % entries.size()]);
    }
    client_config.make_query = [generator](Rng& rng) {
      return generator.Next(rng);
    };
    client_config.think_time = config_.think_time;
    client_config.job_duration = config_.job_duration;
    client_config.collector = &stack.collector;
    client_config.profiler = stack.profiler.get();
    client_config.request_timeout = config_.client_request_timeout;
    client_config.retry_max = config_.retry_max;
    client_config.retry_backoff = config_.retry_backoff;
    client_config.horizon = config_.client_horizon;
    auto client = std::make_shared<workload::ClientNode>(client_config);
    clients_.push_back(client);
    network_->AddNode("client" + std::to_string(i), client,
                      net::NodePlacement{stack.client_host, 1});
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

void SimScenario::InstallFaultHooks() {
  // The hooks act on the first stack: a fault plan keeps a build to one
  // stack, so it is the only one they can meet.
  ServiceStack* home = stacks_.front().get();

  // Machine churn: crash picks uniformly among currently-up machines
  // and flips them down in the white pages; pools notice on their next
  // refresh sweep and stop handing them out until they come back. The
  // up-list is read from the white pages' up flags into a buffer the
  // hook keeps across strikes.
  fault_->SetMachineHooks(
      [home, up = std::vector<db::MachineId>()](std::size_t n,
                                                Rng& rng) mutable {
        home->database.ListUp(&up);
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
          home->database.Update(id, [](db::MachineRecord& rec) {
            rec.state = db::MachineState::kDown;
          });
        }
        return victims;
      },
      [home](const std::vector<db::MachineId>& ids) {
        for (const db::MachineId id : ids) {
          home->database.Update(id, [](db::MachineRecord& rec) {
            rec.state = db::MachineState::kUp;
          });
        }
      });

  // Pool churn: kill a random live instance straight out of the
  // directory — this also covers pools the proxy created on demand,
  // which the injector cannot know by name at build time. The directory
  // is resolved at strike time: the server side's view when replicated.
  fault_->SetPoolHook([this, home](Rng& rng) {
    directory::DirectoryApi* dir = home->dir_api;
    std::vector<directory::PoolInstance> instances;
    for (const std::string& name : dir->PoolNames()) {
      for (auto& instance : dir->Lookup(name)) {
        instances.push_back(std::move(instance));
      }
    }
    if (instances.empty()) return false;
    const directory::PoolInstance& victim =
        instances[rng.NextBounded(instances.size())];
    network_->RemoveNode(victim.address);
    // Proxy-created pools retire like Build's: once the last instance is
    // gone, the next query can re-create the pool from scratch.
    RetirePool(victim.pool_name, victim.instance, victim.segment, dir,
               &home->database);
    return true;
  });

  // Correlated site faults: crash every up machine assigned to the
  // site; services follow through the site recorded at registration.
  fault_->SetSiteHook([this, home](const std::string& site) {
    std::vector<db::MachineId> victims;
    const auto it = site_machines_.find(site);
    if (it == site_machines_.end()) return victims;
    home->database.VisitRecords(
        it->second, [&victims](std::size_t, const db::MachineRecord* rec) {
          if (rec != nullptr && rec->state == db::MachineState::kUp) {
            victims.push_back(rec->id);
          }
        });
    for (const db::MachineId id : victims) {
      home->database.Update(id, [](db::MachineRecord& rec) {
        rec.state = db::MachineState::kDown;
      });
    }
    return victims;
  });
}

void SimScenario::RunUntil(SimTime until) {
  network_->RunShardedUntil(until, config_.cell_jobs);
}

void SimScenario::ResetMeasurement() {
  for (const auto& stack : stacks_) {
    stack->collector.Reset();
    if (stack->profiler) stack->profiler->Reset();
  }
}

void SimScenario::RunUntil(SimTime end, const std::vector<Sampler>& samplers) {
  // Each sampler's boundaries are absolute offsets from the current
  // time, so its grid is drift-free however its interval divides the
  // span; a switched-off sampler is never due.
  const SimTime start = kernel_.Now();
  std::vector<SimTime> due(samplers.size(),
                           std::numeric_limits<SimTime>::max());
  for (std::size_t i = 0; i < samplers.size(); ++i) {
    if (samplers[i].interval <= 0 || !samplers[i].sample) continue;
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

void SimScenario::Measure(SimDuration warmup, SimDuration duration,
                          const std::vector<Sampler>& samplers) {
  RunUntil(kernel_.Now() + warmup);
  ResetMeasurement();
  for (const auto& recorder : recorders_) recorder->Reset();
  const SimTime start = kernel_.Now();
  for (const Sampler& sampler : samplers) {
    if (sampler.interval > 0 && sampler.sample) sampler.sample(start);
  }
  RunUntil(start + duration, samplers);
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
  // One stack's collector is already the whole view; folding it into a
  // copy would hold a second sample buffer for nothing.
  if (stacks_.size() == 1) return stacks_.front()->collector;
  merged_collector_.Reset();
  for (const auto& stack : stacks_) {
    merged_collector_.MergeFrom(stack->collector);
  }
  return merged_collector_;
}

std::uint64_t SimScenario::total_events() const {
  return network_->total_executed();
}

db::ResourceDatabase& SimScenario::database() {
  return stacks_.front()->database;
}

directory::DirectoryService& SimScenario::directory() {
  return stacks_.front()->directory;
}

profile::StageProfiler* SimScenario::MergedProfiler() const {
  if (stacks_.size() == 1) return stacks_.front()->profiler.get();
  if (!config_.profile) return nullptr;
  if (!merged_profiler_) {
    profile::StageProfiler::Config merged_config;
    merged_config.ring_capacity =
        config_.profile_ring_capacity * stacks_.size();
    merged_profiler_ =
        std::make_unique<profile::StageProfiler>(merged_config);
  }
  merged_profiler_->Reset();
  for (const auto& stack : stacks_) {
    merged_profiler_->Merge(*stack->profiler);
    merged_profiler_->AbsorbRing(*stack->profiler);
  }
  return merged_profiler_.get();
}

pipeline::PoolStats SimScenario::TotalPoolStats() const {
  pipeline::PoolStats total;
  const auto add = [&total](const pipeline::ResourcePool& pool) {
    const auto& s = pool.stats();
    total.queries += s.queries;
    total.allocations += s.allocations;
    total.failures += s.failures;
    total.releases += s.releases;
    total.oversubscribed += s.oversubscribed;
    total.entries_examined += s.entries_examined;
    total.entries_refreshed += s.entries_refreshed;
    total.refresh_ticks += s.refresh_ticks;
  };
  for (const auto& pool : pools_) add(*pool);
  for (const auto& stack : stacks_) {
    for (const auto& pool : stack->proxy->pools()) add(*pool);
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
  pipeline::ProxyStats total;
  for (const auto& stack : stacks_) {
    const pipeline::ProxyStats s = stack->proxy->stats();
    total.pools_created += s.pools_created;
    total.create_failures += s.create_failures;
  }
  return total;
}

std::uint64_t SimScenario::total_client_retries() const {
  std::uint64_t n = 0;
  for (const auto& client : clients_) n += client->stats().retries;
  return n;
}

}  // namespace actyp
