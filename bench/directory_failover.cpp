// directory_failover: directory-replica crash/restore under service
// churn on a LAN. A crashed replica loses its state (journal included);
// reads and registrations fail over to a surviving replica, and the
// restored replica refills itself through anti-entropy — a full-state
// sync, since its empty version vector predates every peer's bounded
// journal. Pool-process churn keeps registrations flowing the whole
// time, so the replicas have real divergence to reconcile.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunDirectoryFailover(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "directory_failover";
  report.title = "Replica — directory failover under churn (LAN)";
  const std::size_t machines = options.machines.value_or(800);
  const std::size_t clients = options.clients.value_or(16);
  const double ts = options.time_scale;

  struct Regime {
    const char* label;
    std::uint32_t replicas;
    bool replica_churn;
  };
  const Regime regimes[] = {
      {"seed", 1, false},          // single authoritative directory
      {"replicated", 3, false},    // replication cost, no replica faults
      {"replica_churn", 3, true},  // crash/restore replicas under churn
  };

  int index = 0;
  std::vector<bench::CellTask> tasks;
  for (const Regime& regime : regimes) {
    if (options.replicas && *options.replicas != regime.replicas) continue;
    ScenarioConfig config;
    config.machines = machines;
    config.clusters = 4;
    config.clients = clients;
    config.directory_replicas = regime.replicas;
    config.directory_sync_period =
        Seconds(options.sync_period_s.value_or(0.5) * ts);
    // A deliberately tiny journal: by the time a churned replica
    // restores, the survivors' journal floors have risen past its empty
    // version vector, so the refill is a guaranteed full-state sync.
    config.directory_journal_capacity = 8;
    config.client_request_timeout = bench::ScaledSeconds(options, 2.0);
    config.retry_max = options.retry_max.value_or(1);
    config.retry_backoff = bench::ScaledSeconds(options, 0.25);
    // Pool-process churn throughout: every crash/restart is a directory
    // unregistration/re-registration the replicas must agree on.
    config.fault_plan.AddChurn(0.5 / ts, Seconds(1.5 * ts), "pool.*",
                               Seconds(2.0 * ts));
    if (regime.replica_churn) {
      config.fault_plan.AddChurn(0.4 / ts, Seconds(2.5 * ts), "replica*",
                                 Seconds(4.0 * ts));
      // One guaranteed crash of the always-preferred replica 0, so the
      // failover path is exercised under every seed (random churn may
      // only ever hit the spares).
      fault::FaultEvent crash0;
      crash0.kind = fault::FaultKind::kCrash;
      crash0.target = "replica0";
      crash0.start = Seconds(5.0 * ts);
      crash0.downtime = Seconds(2.5 * ts);
      config.fault_plan.events.push_back(crash0);
    }
    config.seed = bench::CellSeed(options, 43000,
                                  static_cast<std::uint64_t>(index) * 100 +
                                      clients);
    ++index;
    tasks.push_back([config = std::move(config), &options, regime] {
      const auto metrics = bench::RunCell(
          config, options, bench::ScaledSeconds(options, 3),
          bench::ScaledSeconds(options, 15));
      ScenarioCell cell;
      cell.labels.emplace_back("regime", regime.label);
      cell.dims.emplace_back("replicas",
                             static_cast<double>(regime.replicas));
      metrics.Select(bench::kStandard | bench::kFault | bench::kReplica,
                     &cell);
      return cell;
    });
  }
  bench::RunCellTasks(options, std::move(tasks), &report);
  report.note =
      "shape check: replica churn triggers failovers (replica 0 — the "
      "preferred LAN replica — is crashed under every seed, so reads are "
      "served by a survivor) and full_syncs (restored replicas refill "
      "via snapshot: the tiny 8-op journal guarantees the survivors' "
      "floors outrun an empty version vector) while success_rate stays "
      "close to the churn-only regime — the failover path, not the "
      "clients, absorbs the directory faults.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "directory_failover",
    "directory-replica crash/restore with failover under pool churn",
    RunDirectoryFailover);

}  // namespace
}  // namespace actyp
