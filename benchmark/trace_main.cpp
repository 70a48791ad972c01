// actyp_bench_trace: one traced repeat of a workload.
//
//   actyp_bench_trace --workload wan_lp [--seed 1] [--window-scale 0.25]
//
// Runs the workload like actyp_bench (same construction, warmup and
// window, so the digest inputs must match) with heap allocations
// counted, reads every layer's public counters around the window, then
// replays each layer's entry points (replay.hpp) and prints the
// per-layer metrics as one JSON line. run.py adds the three trace.*
// metrics that need its host-rate estimator or the untraced run.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace actyp::benchmark {
namespace {

// Host time the layer replay spends on each entry point.
constexpr double kReplayMs = 100;

enum Stage : std::size_t { kClient, kQm, kPm, kPool, kReint, kMonitor };
constexpr std::size_t kStages = 6;

struct Node {
  Stage stage;
  net::Address address;
};

// Every node address SimScenario registers, by stage, named as in
// src/actyp/scenario.cpp. Proxies are left out: with precreated pools
// they never receive a message.
std::vector<Node> NodeAddresses(const ScenarioConfig& config, bool lp) {
  std::vector<Node> nodes;
  const std::size_t sites = lp ? config.wan_sites : 1;
  for (std::size_t k = 0; k < sites; ++k) {
    const std::string prefix =
        sites > 1 ? "site" + std::to_string(k) + "." : "";
    nodes.push_back({kMonitor, prefix + "monitor"});
    nodes.push_back({kReint, prefix + "reint"});
    for (std::size_t i = 0; i < std::max<std::size_t>(1, config.pool_managers);
         ++i) {
      nodes.push_back({kPm, prefix + "pm" + std::to_string(i)});
    }
    for (std::size_t i = 0;
         i < std::max<std::size_t>(1, config.query_managers); ++i) {
      nodes.push_back({kQm, prefix + "qm" + std::to_string(i)});
    }
  }
  for (std::size_t c = 0; c < std::max<std::size_t>(1, config.clusters); ++c) {
    for (std::uint32_t r = 0;
         r < std::max<std::uint32_t>(1, config.pool_replicas); ++r) {
      nodes.push_back(
          {kPool, "pool.c" + std::to_string(c) + ".r" + std::to_string(r)});
    }
  }
  for (std::size_t i = 0; i < config.clients; ++i) {
    nodes.push_back({kClient, "client" + std::to_string(i)});
  }
  return nodes;
}

struct Snapshot {
  std::vector<simnet::NodeStats> nodes;  // parallel to NodeAddresses
  AllocCount alloc;
  pipeline::PoolStats pools;
  fault::FaultStats fault;
  replica::ReplicaGroupStats replica;
  std::uint64_t cancelled = 0;
};

Snapshot Take(SimScenario& scenario, const std::vector<Node>& nodes) {
  Snapshot snap;
  for (const Node& node : nodes) {
    snap.nodes.push_back(scenario.network().StatsFor(node.address));
  }
  snap.pools = scenario.TotalPoolStats();
  snap.fault = scenario.fault_stats();
  snap.replica = scenario.replica_stats();
  snap.cancelled = scenario.kernel().cancelled();
  snap.alloc = AllocCounts();
  return snap;
}

// Resident set right now, from /proc/self/statm.
double CurrentRssMb() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int read = std::fscanf(statm, "%lu %lu", &size, &resident);
  std::fclose(statm);
  if (read != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// A restarted node starts its counters from zero.
template <typename T>
double Delta(T after, T before) {
  return static_cast<double>(after >= before ? after - before : after);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

int Run(const Args& args) {
  const ScenarioConfig config = args.workload->make(args.seed);
  const AllocCount setup0 = AllocCounts();
  SimScenario scenario(config);
  const AllocCount setup_allocs = AllocCounts() - setup0;
  const double setup_rss_mb = CurrentRssMb();

  const std::vector<Node> nodes = NodeAddresses(config, scenario.lp_mode());
  Snapshot before;
  const WindowResult result =
      MeasureWindow(scenario, args.workload->base_window_s * args.window_scale,
                    [&] { before = Take(scenario, nodes); });
  const Snapshot after = Take(scenario, nodes);

  std::string error;
  if (result.completed == 0) error = "no query completed";
  // A silent node means an address that matches nothing, except for
  // nodes that may legitimately be silent: the reintegrator and the
  // monitor hear only their own timers in these workloads, which may not
  // have fired in a short run, and a pool restarted by pool churn may
  // not have been hit yet.
  const SimTime ran = scenario.kernel().Now();
  const bool pool_churn = std::any_of(
      config.fault_plan.events.begin(), config.fault_plan.events.end(),
      [](const fault::FaultEvent& e) {
        return e.target.rfind("pool", 0) == 0;
      });
  auto may_be_silent = [&](Stage stage) {
    return (stage == kReint &&
            ran < pipeline::ReintegratorConfig{}.sweep_period) ||
           (stage == kMonitor && ran < config.monitor_period) ||
           (stage == kPool && pool_churn);
  };
  std::array<double, kStages> messages{};
  std::array<double, kStages> busy_us{};
  std::array<double, kStages> count{};
  std::uint64_t max_queue = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Stage stage = nodes[i].stage;
    const simnet::NodeStats& a = after.nodes[i];
    const simnet::NodeStats& b = before.nodes[i];
    messages[stage] += Delta(a.messages, b.messages);
    busy_us[stage] += Delta(a.busy_time, b.busy_time);
    count[stage] += 1;
    max_queue = std::max(max_queue, a.max_queue);
    if (a.messages == 0 && !may_be_silent(stage) && error.empty()) {
      error = "node '" + nodes[i].address + "' received no messages";
    }
  }

  const std::size_t shards = scenario.network().shard_count();
  const std::uint64_t pending = scenario.network().pending_events();
  const ReplayCosts replay =
      RunReplay(config, scenario.lp_mode(),
                std::max<std::size_t>(1, pending / shards), kReplayMs);
  if (error.empty()) error = replay.error;

  const double queries = static_cast<double>(std::max<std::uint64_t>(
      1, result.completed));
  const double window = result.window_s;
  const double window_us = window * 1e6;
  auto per_query = [&](double x) { return x / queries; };
  const double events = static_cast<double>(result.delta.events);
  double total_messages = 0;
  for (const double m : messages) total_messages += m;

  JsonLine m;
  const AllocCount window_allocs = after.alloc - before.alloc;
  m.Add("alloc.count_per_query",
        per_query(static_cast<double>(window_allocs.calls)));
  m.Add("alloc.bytes_per_query",
        per_query(static_cast<double>(window_allocs.bytes)));
  m.Add("setup.allocs_per_machine",
        Ratio(static_cast<double>(setup_allocs.calls),
              static_cast<double>(config.machines)));
  m.Add("setup.rss_mb", setup_rss_mb);

  const double kernel_ns = replay.kernel_event.ns_per_call();
  m.Add("kernel.events_per_query", per_query(events));
  m.Add("kernel.cancelled_per_query",
        per_query(Delta(after.cancelled, before.cancelled)));
  m.Add("kernel.pending_events", pending);
  m.Add("kernel.host_ns_per_event", kernel_ns);
  m.Add("kernel.host_ns_per_query", per_query(events) * kernel_ns);

  const double network_ns = replay.network_message.ns_per_call();
  const double network_per_query = per_query(total_messages) * network_ns;
  m.Add("network.messages_per_query", per_query(total_messages));
  m.Add("network.lost_per_query",
        per_query(static_cast<double>(result.delta.lost)));
  m.Add("network.max_queue", max_queue);
  m.Add("network.host_ns_per_message", network_ns);
  m.Add("network.host_ns_per_query", network_per_query);
  m.Add("lp.cpu_per_wall", Ratio(result.cpu_s, result.wall_s));

  m.Add("message.host_ns_build", replay.message_build.ns_per_call());
  m.Add("message.host_ns_header_lookup", replay.header_lookup.ns_per_call());
  m.Add("message.host_ns_alloc_roundtrip",
        replay.alloc_roundtrip.ns_per_call());
  m.Add("message.allocs_per_build", replay.message_build.allocs_per_call());
  m.Add("query.host_ns_parse", replay.query_parse.ns_per_call());
  m.Add("query.allocs_per_parse", replay.query_parse.allocs_per_call());

  // One pipeline stage: its calls per query from the network's per-node
  // counters, its cost per call from the replay.
  auto stage_metrics = [&](const char* name, Stage stage,
                           const CallCost& cost, bool busy) {
    const std::string p = name;
    const double calls = per_query(messages[stage]);
    m.Add(p + ".calls_per_query", calls);
    m.Add(p + ".host_ns_per_call", cost.ns_per_call());
    m.Add(p + ".host_ns_per_query", calls * cost.ns_per_call());
    m.Add(p + ".allocs_per_call", cost.allocs_per_call());
    if (busy) {
      m.Add(p + ".sim_busy_frac",
            Ratio(busy_us[stage], window_us * count[stage]));
    }
    return calls * cost.ns_per_call();
  };
  const double qm_ns = stage_metrics("qm", kQm, replay.qm, true);
  const double pm_ns = stage_metrics("pm", kPm, replay.pm, true);
  const double reint_ns = stage_metrics("reint", kReint, replay.reint, true);
  const double client_ns =
      stage_metrics("client", kClient, replay.client, false);
  m.Add("client.retries_per_query",
        per_query(static_cast<double>(result.delta.retries)));

  const double pool_queries = Delta(after.pools.queries, before.pools.queries);
  const double pool_allocs =
      Delta(after.pools.allocations, before.pools.allocations);
  const double pool_releases =
      Delta(after.pools.releases, before.pools.releases);
  const double pool_ticks =
      Delta(after.pools.refresh_ticks, before.pools.refresh_ticks);
  const double pool_ns =
      per_query(pool_queries * replay.pool_query.ns_per_call() +
                pool_releases * replay.pool_release.ns_per_call() +
                pool_ticks * replay.pool_tick.ns_per_call());
  m.Add("pool.calls_per_query", per_query(messages[kPool]));
  m.Add("pool.host_ns_per_call", replay.pool_query.ns_per_call());
  m.Add("pool.host_ns_per_query", pool_ns);
  m.Add("pool.allocs_per_call", replay.pool_query.allocs_per_call());
  m.Add("pool.sim_busy_frac",
        Ratio(busy_us[kPool], window_us * count[kPool]));
  m.Add("pool.entries_examined_per_alloc",
        Ratio(static_cast<double>(result.delta.entries_examined),
              pool_allocs));
  m.Add("pool.alloc_frac", Ratio(pool_allocs, pool_queries));
  m.Add("pool.refresh_entries_per_tick",
        Ratio(Delta(after.pools.entries_refreshed,
                    before.pools.entries_refreshed),
              pool_ticks));
  m.Add("pool.host_ns_per_refresh_tick", replay.pool_tick.ns_per_call());
  m.Add("pool.host_ns_per_release", replay.pool_release.ns_per_call());

  double spans = 0;
  if (const profile::StageProfiler* profiler = scenario.profiler()) {
    for (std::size_t i = 0; i < profile::kStageCount; ++i) {
      spans += static_cast<double>(
          profiler->Summary(static_cast<profile::Stage>(i)).count);
    }
    const std::pair<const char*, profile::Stage> waits[] = {
        {"qm", profile::Stage::kQmAdmit},
        {"pm", profile::Stage::kPmDelegate},
        {"pool", profile::Stage::kPoolSelect}};
    for (const auto& [name, stage] : waits) {
      const profile::StageSummary summary = profiler->Summary(stage);
      m.Add(std::string(name) + ".sim_p50_ms", summary.p50_s * 1e3);
      m.Add(std::string(name) + ".sim_p99_ms", summary.p99_s * 1e3);
    }
  }

  const double monitor_ns =
      per_query(messages[kMonitor]) * replay.monitor_sweep.ns_per_call();
  m.Add("monitor.sweeps_per_sim_s", messages[kMonitor] / window);
  m.Add("monitor.host_ns_per_sweep", replay.monitor_sweep.ns_per_call());
  m.Add("monitor.host_ns_per_query", monitor_ns);

  const double update_ns = replay.db_update.ns_per_call();
  const double crashed =
      Delta(after.fault.machines_crashed, before.fault.machines_crashed);
  const double restored =
      Delta(after.fault.machines_restored, before.fault.machines_restored);
  const double fault_ns =
      per_query(crashed * (replay.db_foreach.ns_per_call() + update_ns) +
                restored * update_ns);
  m.Add("db.host_ns_per_scan_record",
        Ratio(replay.db_foreach.ns_per_call(),
              static_cast<double>(replay.db_records)));
  m.Add("db.host_ns_per_update", update_ns);
  m.Add("fault.machines_crashed_per_sim_s", crashed / window);
  // Pools die through the directory ("pools") or as named services
  // ("pool.*"); pools are the only services the workloads crash.
  m.Add("fault.pools_killed_per_sim_s",
        (Delta(after.fault.pools_killed, before.fault.pools_killed) +
         Delta(after.fault.services_crashed, before.fault.services_crashed)) /
            window);
  m.Add("fault.host_ns_per_query", fault_ns);

  const double sync_rounds =
      Delta(after.replica.sync_rounds, before.replica.sync_rounds);
  const double replica_ns =
      per_query(sync_rounds) * replay.replica_sync.ns_per_call();
  m.Add("replica.sync_bytes_per_sim_s",
        Delta(after.replica.sync_bytes, before.replica.sync_bytes) / window);
  m.Add("replica.full_syncs",
        Delta(after.replica.full_syncs, before.replica.full_syncs));
  m.Add("replica.max_staleness_ms", after.replica.max_staleness_s * 1e3);
  m.Add("replica.host_ns_per_sync", replay.replica_sync.ns_per_call());
  m.Add("replica.host_ns_per_query", replica_ns);

  m.Add("profile.spans_per_query", per_query(spans));
  m.Add("profile.host_ns_per_record", replay.profile_record.ns_per_call());
  m.Add("profile.host_ns_per_query",
        per_query(spans) * replay.profile_record.ns_per_call());

  m.Add("sim_queries_per_s", static_cast<double>(result.completed) / window);
  m.Add("sim_resp_p50_ms", result.p50_ms);
  m.Add("sim_resp_p999_ms", result.p999_ms);
  m.Add("sim_fail_frac",
        Ratio(static_cast<double>(result.failures),
              static_cast<double>(result.completed + result.failures)));

  // Disjoint buckets only. Each network delivery already includes its
  // two kernel events (delivery and completion), so the kernel bucket
  // holds the remaining events: replica and fault timers, churn ticks.
  const double timer_events = std::max(0.0, events - 2 * total_messages);
  const double attributed = per_query(timer_events) * kernel_ns +
                            network_per_query + qm_ns + pm_ns + pool_ns +
                            reint_ns + client_ns + monitor_ns + fault_ns +
                            replica_ns;
  // run.py adds trace.cpu_ns_per_query, trace.coverage and
  // trace.overhead_frac from the window's chunks.
  m.Add("trace.attributed_ns_per_query", attributed);

  JsonLine out;
  AddWindowFields(args, result, &out);
  out.Add("error", error);
  out.Add("metrics", m);
  std::printf("%s\n", out.str().c_str());
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace actyp::benchmark

int main(int argc, char** argv) {
  actyp::benchmark::Args args;
  if (!actyp::benchmark::ParseArgs(argc, argv, &args)) return 2;
  return actyp::benchmark::Run(args);
}
