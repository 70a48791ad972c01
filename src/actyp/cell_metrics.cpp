#include "actyp/cell_metrics.hpp"

#include <cstddef>
#include <cstdint>

#include "profile/trace_assembler.hpp"

namespace actyp {

void CellMetrics::AddResponse(const workload::ResponseCollector& collector) {
  Add(kResponse, "mean_s", collector.response_stats().mean());
  Add(kResponse, "p50_s", collector.QuantileSeconds(0.50));
  Add(kResponse, "p95_s", collector.QuantileSeconds(0.95));
  Add(kResponse, "completed", static_cast<double>(collector.completed()));
  Add(kResponse, "failures", static_cast<double>(collector.failures()));
}

void CellMetrics::AddStages(const profile::StageProfiler& profiler) {
  for (std::size_t i = 0; i < profile::kStageCount; ++i) {
    const auto stage = static_cast<profile::Stage>(i);
    const std::string name(profile::StageName(stage));
    const profile::StageSummary summary = profiler.Summary(stage);
    Add(kStages, name + "_p50_s", summary.p50_s);
    Add(kStages, name + "_p95_s", summary.p95_s);
    Add(kStages, name + "_p99_s", summary.p99_s);
  }
}

CellMetrics CollectCell(SimScenario& scenario) {
  CellMetrics metrics;
  const workload::ResponseCollector& collector = scenario.collector();
  metrics.AddResponse(collector);
  if (const profile::StageProfiler* profiler = scenario.profiler()) {
    metrics.AddStages(*profiler);
    // Tail attribution over the traces still assembled in the ring
    // window (the ring capacity bounds the window): which stage
    // dominated the slowest traces (stage index; -1 = no traces), and
    // each handling stage's share of the tail's attributed time. The
    // umbrella client_issue span and the background stages never appear
    // in request waterfalls, so only the five handling stages report.
    const profile::TailReport tail = profile::TraceAssembler::Tail(
        profile::TraceAssembler::Assemble(profiler->RingSnapshot())
            .requests);
    metrics.Add(kTrace, "trace_count", static_cast<double>(tail.trace_count));
    metrics.Add(kTrace, "slow_trace_top_stage",
                static_cast<double>(tail.slow_top_stage));
    for (const profile::Stage stage :
         {profile::Stage::kQmAdmit, profile::Stage::kPmDelegate,
          profile::Stage::kPoolSelect, profile::Stage::kReintegrate,
          profile::Stage::kReply}) {
      metrics.Add(kTrace,
                  std::string(profile::StageName(stage)) + "_tail_share",
                  tail.tail_share[static_cast<std::size_t>(stage)]);
    }
  }

  const std::uint64_t completed = collector.completed();
  const std::uint64_t attempts = completed + collector.failures();
  metrics.Add(kFault, "success_rate",
              attempts == 0 ? 0.0
                            : static_cast<double>(completed) /
                                  static_cast<double>(attempts));
  metrics.Add(kFault, "lost",
              static_cast<double>(scenario.network().lost_messages() +
                                  scenario.network().partition_dropped()));
  metrics.Add(kFault, "retries",
              static_cast<double>(scenario.total_client_retries()));

  const fault::FaultStats& faults = scenario.fault_stats();
  metrics.Add(kChurn, "machines_crashed",
              static_cast<double>(faults.machines_crashed));
  metrics.Add(kChurn, "services_crashed",
              static_cast<double>(faults.services_crashed +
                                  faults.pools_killed));

  const replica::ReplicaGroupStats replicas = scenario.replica_stats();
  metrics.Add(kReplica, "sync_bytes",
              static_cast<double>(replicas.sync_bytes));
  metrics.Add(kReplica, "full_syncs",
              static_cast<double>(replicas.full_syncs));
  metrics.Add(kReplica, "failovers", static_cast<double>(replicas.failovers));
  metrics.Add(kReplica, "convergences",
              static_cast<double>(replicas.convergences));
  metrics.Add(kReplica, "tombstones_gc",
              static_cast<double>(replicas.tombstones_gc));
  metrics.Add(kReplica, "max_staleness_s", replicas.max_staleness_s);
  metrics.Add(kReplica, "converge_time_s", replicas.converge_time_s);

  // Selection cost is entries examined per allocation (the
  // indexed-vs-linear headroom); refresh cost is cache entries re-read
  // per periodic tick (with dirty-id refresh it tracks monitor churn,
  // not cache size).
  const pipeline::PoolStats pools = scenario.TotalPoolStats();
  metrics.Add(kEngine, "sel_cost",
              pools.allocations == 0
                  ? 0.0
                  : static_cast<double>(pools.entries_examined) /
                        static_cast<double>(pools.allocations));
  metrics.Add(kEngine, "entries_refreshed",
              static_cast<double>(pools.entries_refreshed));
  metrics.Add(kEngine, "refresh_cost",
              pools.refresh_ticks == 0
                  ? 0.0
                  : static_cast<double>(pools.entries_refreshed) /
                        static_cast<double>(pools.refresh_ticks));
  metrics.Add(kPool, "oversubscribed",
              static_cast<double>(pools.oversubscribed));
  metrics.Add(kPool, "entries_examined",
              static_cast<double>(pools.entries_examined));
  metrics.Add(kPool, "pools_created",
              static_cast<double>(scenario.proxy_stats().pools_created));
  return metrics;
}

}  // namespace actyp
