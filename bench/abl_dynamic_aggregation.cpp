// Ablation: dynamic vs static aggregation — the paper's second key
// claim: "static aggregation of resources for improved scheduling is
// inadequate ... because the needs of users and jobs change with both
// location and time" (§1). We shift the job mix onto one hot pool (a
// class working on an assignment, §6's temporal-locality example) and
// compare a static partition against ActYP reacting by splitting or
// replicating the hot aggregate.
#include <string>

#include "bench_common.hpp"

namespace actyp {
namespace {

void RunMix(const ScenarioRunOptions& options, std::uint32_t segments,
            std::uint32_t replicas, double hot_fraction,
            std::uint64_t seed_offset, ScenarioCell* cell) {
  ScenarioConfig config;
  config.machines = options.machines.value_or(3200);
  config.clusters = 4;
  config.pool_segments = segments;
  config.pool_replicas = replicas;
  config.clients = options.clients.value_or(32);
  config.hot_fraction = hot_fraction;
  config.seed = bench::CellSeed(options, 50, seed_offset);
  const auto metrics =
      bench::RunCell(config, options, bench::ScaledSeconds(options, 3),
                     bench::ScaledSeconds(options, 15));
  metrics.Select({"mean_s"}, cell);
  metrics.Select(bench::kStages, cell);
}

ScenarioReport RunAblDynamicAggregation(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "abl_dynamic_aggregation";
  report.title = "Ablation — static vs dynamically re-aggregated pools";

  struct Row {
    const char* configuration;
    std::uint32_t segments;
    std::uint32_t replicas;
    double hot_fraction;
    std::uint64_t seed_offset;
  };
  // Uniform mix (static partition perfectly sized), then the class logs
  // in (90% of queries hit one pool), then ActYP reacts by splitting or
  // replicating the hot aggregate.
  const Row rows[] = {
      {"static-4-pools", 1, 1, 0.0, 1},
      {"static-4-pools", 1, 1, 0.9, 2},
      {"split-x4", 4, 1, 0.9, 3},
      {"replicate-x4", 1, 4, 0.9, 4},
  };
  std::vector<bench::CellTask> tasks;
  for (const Row& row : rows) {
    tasks.push_back([row, &options] {
      ScenarioCell cell;
      cell.labels.emplace_back("configuration", row.configuration);
      cell.dims.emplace_back("hot_fraction", row.hot_fraction);
      RunMix(options, row.segments, row.replicas, row.hot_fraction,
             row.seed_offset, &cell);
      return cell;
    });
  }
  bench::RunCellTasks(options, std::move(tasks), &report);

  report.note =
      "shape check: the hot-spot mix degrades the static partition well "
      "below its uniform-mix response; re-defining the aggregation on the "
      "fly (splitting or replicating the hot pool) recovers most of it — "
      "the active yellow pages' reason to exist.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "abl_dynamic_aggregation",
    "hot-spot mix: static partition vs splitting/replicating the hot pool",
    RunAblDynamicAggregation);

}  // namespace
}  // namespace actyp
