#include "obs/telemetry.hpp"

#include "actyp/scenario.hpp"

namespace actyp::obs {

profile::MetricCell TelemetrySample(SimScenario& scenario, SimTime t) {
  profile::MetricCell cell;
  cell.scenario = "telemetry";
  cell.labels.emplace_back("seed",
                           std::to_string(scenario.config().seed));

  std::uint64_t inflight = 0;
  std::uint64_t held = 0;
  for (const auto& client : scenario.clients()) {
    if (client->inflight_request() != 0) ++inflight;
    held += client->held_count();
  }
  std::uint64_t pool_sessions = 0;
  const auto live_pools = scenario.LivePools();
  for (const auto& [address, pool] : live_pools) {
    pool_sessions += pool->active_sessions();
  }
  auto& collector = scenario.collector();
  auto& network = scenario.network();
  const fault::FaultStats& faults = scenario.fault_stats();
  const replica::ReplicaGroupStats replicas = scenario.replica_stats();
  const replica::ReplicaGroup* group = scenario.replica_group();

  // Fixed order: the byte-identity tests compare sample streams, so
  // every gauge appears in every sample, zeros included.
  cell.values.emplace_back("t_s", ToSeconds(t));
  cell.values.emplace_back("completed",
                           static_cast<double>(collector.completed()));
  cell.values.emplace_back("failures",
                           static_cast<double>(collector.failures()));
  cell.values.emplace_back(
      "retries", static_cast<double>(scenario.total_client_retries()));
  cell.values.emplace_back("inflight_clients",
                           static_cast<double>(inflight));
  cell.values.emplace_back("held_claims", static_cast<double>(held));
  cell.values.emplace_back("pool_sessions",
                           static_cast<double>(pool_sessions));
  cell.values.emplace_back("pools_live",
                           static_cast<double>(live_pools.size()));
  cell.values.emplace_back("pending_events",
                           static_cast<double>(network.pending_events()));
  cell.values.emplace_back("queued_messages",
                           static_cast<double>(network.queued_messages()));
  cell.values.emplace_back("busy_cores",
                           static_cast<double>(network.busy_cores()));
  cell.values.emplace_back("lost_messages",
                           static_cast<double>(network.lost_messages()));
  cell.values.emplace_back(
      "dropped_messages",
      static_cast<double>(network.dropped_messages()));
  cell.values.emplace_back(
      "machines_down", static_cast<double>(faults.machines_crashed -
                                           faults.machines_restored));
  cell.values.emplace_back(
      "services_down", static_cast<double>(faults.services_crashed -
                                           faults.services_restarted));
  cell.values.emplace_back("replica_max_staleness_s",
                           replicas.max_staleness_s);
  cell.values.emplace_back(
      "replica_journal_ops",
      static_cast<double>(group != nullptr ? group->TotalJournalOps()
                                           : 0));
  return cell;
}

}  // namespace actyp::obs
