// Ablation: dynamic vs static aggregation — the paper's second key
// claim: "static aggregation of resources for improved scheduling is
// inadequate ... because the needs of users and jobs change with both
// location and time" (§1). We shift the job mix onto one hot pool (a
// class working on an assignment, §6's temporal-locality example) and
// compare a static partition against ActYP reacting by splitting or
// replicating the hot aggregate.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunAblDynamicAggregation(const ScenarioRunOptions& options) {
  struct Mix {
    const char* configuration;
    std::uint32_t segments;
    std::uint32_t replicas;
    double hot_fraction;
    std::uint64_t seed_offset;
  };
  // Uniform mix (static partition perfectly sized), then the class logs
  // in (90% of queries hit one pool), then ActYP reacts by splitting or
  // replicating the hot aggregate.
  const Mix mixes[] = {
      {"static-4-pools", 1, 1, 0.0, 1},
      {"static-4-pools", 1, 1, 0.9, 2},
      {"split-x4", 4, 1, 0.9, 3},
      {"replicate-x4", 1, 4, 0.9, 4},
  };
  bench::Sweep sweep(options,
                     "Ablation — static vs dynamically re-aggregated pools");
  for (const Mix& mix : mixes) {
    ScenarioConfig config;
    config.machines = options.machines.value_or(3200);
    config.clusters = 4;
    config.pool_segments = mix.segments;
    config.pool_replicas = mix.replicas;
    config.clients = options.clients.value_or(32);
    config.hot_fraction = mix.hot_fraction;
    config.seed = bench::CellSeed(options, 50, mix.seed_offset);
    ScenarioCell row;
    row.labels.emplace_back("configuration", mix.configuration);
    row.dims.emplace_back("hot_fraction", mix.hot_fraction);
    sweep.Add(std::move(config), std::move(row),
              [](const CellMetrics& metrics, ScenarioCell* cell) {
                metrics.Select({"mean_s"}, cell);
                metrics.Select(kStages, cell);
              });
  }
  return sweep.Run(
      "shape check: the hot-spot mix degrades the static partition well "
      "below its uniform-mix response; re-defining the aggregation on the "
      "fly (splitting or replicating the hot pool) recovers most of it — "
      "the active yellow pages' reason to exist.");
}

const ScenarioRegistrar kRegistrar(
    "abl_dynamic_aggregation",
    "hot-spot mix: static partition vs splitting/replicating the hot pool",
    RunAblDynamicAggregation);

}  // namespace
}  // namespace actyp
