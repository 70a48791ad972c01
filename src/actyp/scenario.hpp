// SimScenario: assembles a complete ActYP deployment on the
// discrete-event simulator — white pages, shadow accounts, monitor,
// query managers, pool managers, reintegrator, proxies, resource pools
// (with optional replication and splitting), and closed-loop clients —
// reproducing the experimental setups of the paper's §7.
//
// Build() assembles every deployment as a list of service stacks, each
// a full pipeline over the clusters it owns. The serial build has
// one stack, which mirrors the paper: all service components run on one
// multi-core server host ("alpha", 12 cores — the paper's
// 12-processor Alpha server); clients run on a client host either in
// the same site (LAN, Figs. 4 and 6-8) or across a WAN link (Fig. 5). A
// replicated WAN directory adds a second server host ("beta") on the
// client site. The LP build (`wan_sites` >= 2) has one stack per WAN
// site, each on its own server and client hosts, and runs the sites as
// logical processes of the conservative-window engine.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/policy.hpp"
#include "db/shadow.hpp"
#include "directory/directory.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "monitor/monitor.hpp"
#include "obs/flight_recorder.hpp"
#include "pipeline/pool_manager.hpp"
#include "profile/stage_profiler.hpp"
#include "pipeline/proxy.hpp"
#include "pipeline/query_manager.hpp"
#include "pipeline/reintegrator.hpp"
#include "pipeline/resource_pool.hpp"
#include "replica/group.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"
#include "workload/client.hpp"
#include "workload/cpu_time.hpp"
#include "workload/generator.hpp"

namespace actyp {

struct ScenarioConfig {
  // Fleet / pools.
  std::size_t machines = 3200;
  std::size_t clusters = 1;        // number of distinct pools (Figs. 4-5)
  std::uint32_t pool_replicas = 1; // instances per pool (Fig. 8)
  std::uint32_t pool_segments = 1; // split factor per pool (Fig. 7)
  // Paper-faithful default: the O(n) scan + periodic sort whose linear
  // curves the figures reproduce. Set "least-load" (or another bare
  // policy name) for the indexed fast path — see qm_scaling/pm_scaling.
  std::string policy = "linear-least-load";
  SimDuration resort_period = Seconds(2.0);
  bool precreate_pools = true;  // false = pools created on demand

  // Pipeline stages.
  std::size_t query_managers = 1;
  std::size_t pool_managers = 1;
  std::uint32_t qos_fanout = 1;

  // Directory replication (src/replica/). 1 keeps the single
  // authoritative DirectoryService — the seed behavior, byte-identical
  // under a fixed seed. >= 2 builds a ReplicaGroup kept convergent by
  // journal-driven anti-entropy; lookups/registrations route to the
  // nearest reachable replica and fail over on partition or crash. WAN
  // runs with replication add a second server host ("beta") on the
  // client site, alternate replicas / pool managers / query managers /
  // pool instances across the two sites, and so keep a full service
  // stack on each side of a partition.
  std::uint32_t directory_replicas = 1;
  SimDuration directory_sync_period = Seconds(1.0);
  // Anti-entropy ops retained per replica before delta pulls degrade to
  // full-state syncs.
  std::size_t directory_journal_capacity = 4096;

  // Clients.
  std::size_t clients = 16;
  // Client retry policy: resend a timed-out request up to retry_max
  // times (seeded exponential backoff from retry_backoff) before the
  // interaction counts as failed. 0 = legacy single-shot behavior.
  std::size_t retry_max = 0;
  SimDuration retry_backoff = Millis(250);
  SimDuration think_time = 0;
  std::function<SimDuration(Rng&)> job_duration;  // nullptr = release now
  double hot_fraction = 0.0;
  // Client give-up timer for lossy-network experiments (0 = off).
  SimDuration client_request_timeout = 0;
  // Absolute sim time after which clients stop opening new interactions
  // (0 = never). The chaos engine sets it to the measurement end so the
  // drain window can empty the closed loop before invariants are judged.
  SimTime client_horizon = 0;
  // Probability that any inter-node message is lost (fault injection).
  double message_loss_probability = 0.0;
  // Timed fault events — loss windows, latency spikes, partitions,
  // machine/service churn — armed against the simulation at t=0.
  fault::FaultPlan fault_plan;

  // Deployment.
  bool wan = false;  // clients across a WAN link (Fig. 5)
  // LP-parallel deployment: >= 2 builds that many WAN sites ("site0" ..
  // "site<K-1>"), each the same service stack the serial build has one
  // of (white pages, monitor, proxy, reintegrator, pool managers, query
  // managers, pools), over the clusters it owns — cluster c lives on
  // site c % K, client i on site i % K, and each site's query managers
  // route foreign clusters to the owner site's pool managers across the
  // WAN. Sites become logical processes of the conservative-window
  // engine (simnet::SimNetwork::EnableSharding); `cell_jobs` picks how
  // many worker threads run them. Requires precreate_pools, an empty
  // fault plan, directory_replicas <= 1, wan_one_way > 0 (the
  // lookahead), and clusters >= wan_sites; any ineligible combination
  // warns and falls back to the one-stack serial build. Supersedes `wan`
  // when set.
  std::size_t wan_sites = 0;
  // Worker threads for the LP engine (used only when wan_sites >= 2).
  // Purely an execution knob: sharding — and with it every RNG draw and
  // event tie-break — is fixed by wan_sites, so reports and traces are
  // byte-identical for any cell_jobs value.
  std::size_t cell_jobs = 1;
  SimDuration wan_one_way = Millis(30);
  SimDuration wan_jitter = Millis(5);

  // Monitoring.
  SimDuration monitor_period = Seconds(5.0);

  // Stage-span profiling (src/profile/). When true the scenario owns a
  // StageProfiler and every pipeline stage records its spans; the
  // reports then carry per-stage p50/p95/p99. False skips building the
  // profiler entirely — the null-pointer hooks make the run (and its
  // report output) byte-identical to the unprofiled seed path.
  bool profile = true;
  std::size_t profile_ring_capacity = 4096;

  // Flight recorder (src/obs/): when true each shard owns a bounded
  // ring of structured events — message send/receive/drop, timer
  // arm/fire/cancel, fault strikes/recoveries, replica syncs, pool
  // claim/release. Recording draws nothing from any seeded stream, so
  // false (the default) is byte-identical to the pre-recorder binary
  // and true is byte-identical across --jobs / --cell-jobs.
  bool flight_recorder = false;
  std::size_t flight_capacity = 8192;

  pipeline::CostModel costs;
  std::uint64_t seed = 20010611;  // HPDC 2001 ;-)
};

class SimScenario {
 public:
  explicit SimScenario(ScenarioConfig config);
  ~SimScenario();

  SimScenario(const SimScenario&) = delete;
  SimScenario& operator=(const SimScenario&) = delete;

  // Advances the simulation to `until` (absolute sim time).
  void RunUntil(SimTime until);

  // A periodic read of the measurement window: `sample(t)` runs at the
  // window's start, every `interval` after it, and at its end. An
  // interval <= 0 switches the sampler off.
  struct Sampler {
    SimDuration interval = 0;
    std::function<void(SimTime)> sample;
  };

  // Runs a measurement: `warmup` is excluded (the collector is reset
  // after it), then `duration` of steady state is measured. With
  // samplers the window advances in chunks, each to the earliest next
  // boundary of any sampler, and the samplers due there run between
  // chunks (workers idle, so deterministic reads of any scenario state
  // are safe). Chunked advancement never reorders events, so the run is
  // byte-identical whatever the samplers and their intervals.
  void Measure(SimDuration warmup, SimDuration duration,
               const std::vector<Sampler>& samplers = {});

  // The warmup-boundary reset Measure applies, minus the flight
  // recorders: collector(s) and profiler(s) start the measurement
  // clean. Callers driving the timeline with RunUntil (the chaos
  // capture path) use this to keep warmup-time flight events — fault
  // strikes often land there — while reporting identical metrics.
  void ResetMeasurement();

  // Merged flight-event view: per-shard rings merged and sorted by
  // (time, shard, seq) — identical for any worker count. Empty when
  // the flight recorder is off.
  [[nodiscard]] std::vector<obs::FlightEvent> FlightSnapshot() const;

  // Response statistics. A one-stack scenario returns the collector its
  // clients record into; an LP scenario folds the per-site collectors
  // into a merged view on each call, in site order, so quantiles are
  // deterministic for any worker count.
  [[nodiscard]] workload::ResponseCollector& collector();
  // True when this scenario runs on the LP-parallel engine.
  [[nodiscard]] bool lp_mode() const { return stacks_.size() > 1; }
  // Events executed across every LP kernel (== kernel().executed() on a
  // serial scenario).
  [[nodiscard]] std::uint64_t total_events() const;
  // The serial kernel; on an LP scenario, shard 0's.
  [[nodiscard]] simnet::SimKernel& kernel() { return kernel_; }
  [[nodiscard]] simnet::SimNetwork& network() { return *network_; }
  // The first stack's white pages and unreplicated directory: the whole
  // deployment's on a serial build, site 0's on an LP build (each site
  // keeps its own). With directory_replicas >= 2 the stages use the
  // replica group instead, and this directory stays empty.
  [[nodiscard]] db::ResourceDatabase& database();
  [[nodiscard]] directory::DirectoryService& directory();
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }

  // Aggregated pipeline statistics, summed over every pool instance:
  // precreated, restarted and proxy-created, crashed ones included.
  [[nodiscard]] pipeline::PoolStats TotalPoolStats() const;
  [[nodiscard]] std::uint64_t total_client_failures() const;
  [[nodiscard]] std::uint64_t total_client_retries() const;

  // Replicated-directory subsystem; null when directory_replicas <= 1.
  [[nodiscard]] replica::ReplicaGroup* replica_group() {
    return replicas_.get();
  }
  [[nodiscard]] replica::ReplicaGroupStats replica_stats() const {
    return replicas_ ? replicas_->stats() : replica::ReplicaGroupStats{};
  }

  // Fault subsystem: the injector is always built (with machine, pool,
  // and service hooks installed); the configured plan is armed during
  // Build. `fault_status()` reports whether arming succeeded.
  [[nodiscard]] fault::FaultInjector& fault_injector() { return *fault_; }
  [[nodiscard]] const fault::FaultStats& fault_stats() const {
    return fault_->stats();
  }
  [[nodiscard]] const Status& fault_status() const { return fault_status_; }
  [[nodiscard]] pipeline::ProxyStats proxy_stats() const;

  // Chaos-invariant probes: every client node, and — per address — the
  // latest pool instance still attached to the network (fault restarts
  // replace an address's entry; crashed-and-gone instances drop out).
  [[nodiscard]] const std::vector<std::shared_ptr<workload::ClientNode>>&
  clients() const {
    return clients_;
  }
  [[nodiscard]] std::vector<
      std::pair<std::string, const pipeline::ResourcePool*>>
  LivePools() const;

  // Per-stage latency profiler; null when config.profile is false. An
  // LP scenario rebuilds a merged view on each call: per-site histograms
  // folded in site order plus a lossless union of the span rings
  // (capacity = sites x per-site ring), so summaries and trace assembly
  // are deterministic for any worker count.
  [[nodiscard]] profile::StageProfiler* profiler() {
    return MergedProfiler();
  }
  [[nodiscard]] const profile::StageProfiler* profiler() const {
    return MergedProfiler();
  }

 private:
  struct ServiceStack;

  void Build();
  void InstallFaultHooks();
  [[nodiscard]] profile::StageProfiler* MergedProfiler() const;

  ScenarioConfig config_;
  // Service stacks, one per site of an LP build and one on a serial
  // build. Declared before the network so the profilers, white pages
  // and directories outlive the nodes (and any fault-restart config
  // copies) holding raw pointers to them.
  std::vector<std::unique_ptr<ServiceStack>> stacks_;
  // Flight recorders, one per shard (one per stack, each touched only
  // by its own shard's thread). Same lifetime rule as the stacks.
  std::vector<std::unique_ptr<obs::FlightRecorder>> recorders_;
  simnet::SimKernel kernel_;
  std::unique_ptr<simnet::SimNetwork> network_;
  // Replicated-directory path (directory_replicas >= 2, one-stack builds
  // only): the group plus one routing handle per site.
  std::unique_ptr<replica::ReplicaGroup> replicas_;
  std::unique_ptr<replica::ReplicaHandle> server_directory_;
  std::unique_ptr<replica::ReplicaHandle> remote_directory_;
  // Machine ids by assigned site, for correlated site-crash events.
  std::map<std::string, std::vector<db::MachineId>> site_machines_;
  std::unique_ptr<fault::FaultInjector> fault_;
  Status fault_status_;
  Rng rng_;

  // Lazily-built worker pool for RunShardedUntil (cell_jobs > 1 only).
  std::unique_ptr<ThreadPool> window_pool_;
  // Merged observable views for LP runs, rebuilt on access.
  workload::ResponseCollector merged_collector_;
  mutable std::unique_ptr<profile::StageProfiler> merged_profiler_;

  std::vector<std::shared_ptr<pipeline::ResourcePool>> pools_;
  // Latest instance per address: fault restarts overwrite the entry, so
  // LivePools audits exactly the instances that are reachable.
  std::map<std::string, std::shared_ptr<pipeline::ResourcePool>>
      pool_by_address_;
  std::vector<std::shared_ptr<workload::ClientNode>> clients_;
};

}  // namespace actyp
