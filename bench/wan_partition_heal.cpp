// wan_partition_heal: the replicated-directory convergence experiment
// the ROADMAP called for. A two-site WAN deployment (service stack split
// across "upc" and "purdue" when the directory is replicated) suffers a
// site partition; pool-process churn during the cut makes both sides
// mutate their own directory replica (unregister on crash, re-register
// on restart), so the replicas diverge. After the heal, journal-driven
// anti-entropy reconciles them; converge_time measures heal ->
// byte-identical record sets. A third regime crashes the whole purdue
// site (correlated site-crash: machines + co-located services +
// replica together) and measures the recovery instead.
//
// replicas=1 runs the same fault schedule against the seed
// single-directory deployment for contrast: every component lives on
// one host, so the partition only severs the clients and nothing
// needs to converge.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunWanPartitionHeal(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "wan_partition_heal";
  report.title = "Replica — WAN partition, divergence, heal-to-convergence";
  const std::size_t machines = options.machines.value_or(800);
  const std::size_t clients = options.clients.value_or(16);
  const double ts = options.time_scale;

  struct Regime {
    const char* label;
    bool partition;
    bool site_crash;
  };
  const Regime regimes[] = {
      {"clean", false, false},
      {"partition", true, false},
      {"site_crash", false, true},
  };

  std::vector<std::uint32_t> replica_sweep = {1, 2};
  if (options.replicas) replica_sweep = {*options.replicas};

  int index = 0;
  std::vector<bench::CellTask> tasks;
  for (const std::uint32_t replicas : replica_sweep) {
    for (const Regime& regime : regimes) {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = 2;
      config.clients = clients;
      config.wan = true;
      config.pool_replicas = 2;
      config.query_managers = 2;
      config.pool_managers = 2;
      config.directory_replicas = replicas;
      // 0.35 s deliberately does not divide the fault schedule's times,
      // so the heal never lands exactly on a sync tick and converge_time
      // records a real (nonzero) reconciliation delay.
      config.directory_sync_period =
          Seconds(options.sync_period_s.value_or(0.35) * ts);
      config.client_request_timeout = bench::ScaledSeconds(options, 2.0);
      config.retry_max = options.retry_max.value_or(2);
      config.retry_backoff = bench::ScaledSeconds(options, 0.25);

      // Fault schedule (simulated seconds, scaled like the measurement
      // window): cut at 6, heal at 12, measure until 18. Churn rate
      // scales inversely so the expected number of strikes inside the
      // window is invariant under --time-scale.
      std::string plan_text;
      if (regime.partition) {
        plan_text +=
            "partition start=" + std::to_string(6.0 * ts) +
            " end=" + std::to_string(12.0 * ts) +
            " site_a=purdue site_b=upc\n";
        plan_text += "churn start=" + std::to_string(6.0 * ts) +
                     " end=" + std::to_string(12.0 * ts) +
                     " rate=" + std::to_string(1.0 / ts) +
                     " downtime=" + std::to_string(1.5 * ts) +
                     " target=pool.*\n";
      }
      if (regime.site_crash) {
        plan_text += "site-crash at=" + std::to_string(6.0 * ts) +
                     " site=purdue\n";
        plan_text += "site-restore at=" + std::to_string(11.0 * ts) +
                     " site=purdue\n";
      }
      if (!plan_text.empty()) {
        auto plan = fault::FaultPlan::Parse(plan_text);
        if (plan.ok()) config.fault_plan = std::move(plan.value());
      }
      config.seed = bench::CellSeed(options, 41000,
                                    static_cast<std::uint64_t>(index) * 100 +
                                        clients);
      ++index;
      tasks.push_back([config = std::move(config), &options, regime,
                       replicas] {
        const auto metrics = bench::RunCell(
            config, options, bench::ScaledSeconds(options, 3),
            bench::ScaledSeconds(options, 15));
        ScenarioCell cell;
        cell.labels.emplace_back("regime", regime.label);
        cell.dims.emplace_back("replicas", static_cast<double>(replicas));
        metrics.Select(bench::kStandard | bench::kFault | bench::kReplica,
                       &cell);
        return cell;
      });
    }
  }
  bench::RunCellTasks(options, std::move(tasks), &report);
  report.note =
      "shape check: with replicas=2 the partition regime diverges the two "
      "directory replicas (registrations land on each side) and "
      "converge_time_s > 0 records the post-heal anti-entropy "
      "reconciliation; the purdue-side stack keeps serving its clients "
      "through its own replica, so success_rate beats the replicas=1 run, "
      "where the cut severs every client from the only directory.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "wan_partition_heal",
    "WAN partition with divergent directory replicas, heal-to-convergence",
    RunWanPartitionHeal);

}  // namespace
}  // namespace actyp
