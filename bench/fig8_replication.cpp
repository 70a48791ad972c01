// Figure 8: effect of replicating a 3,200-machine pool (1, 2, 4
// concurrent pool processes over the same machine set). Scheduling
// integrity across replicas comes from the instance-specific bias
// (instance i prefers every i-th machine).
//
// The "directory" label separates the seed behavior — replicated pool
// processes registered in the single authoritative directory — from the
// real replica path, where the directory itself is replicated to the
// same factor (src/replica/) and every instance registers with and is
// resolved through the replica group under anti-entropy.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunFig8(const ScenarioRunOptions& options) {
  const std::size_t machines = options.machines.value_or(3200);
  bench::Sweep sweep(options, "Fig. 8 — replicating a 3,200-machine pool");
  for (const bool replicated_dir : {false, true}) {
    // --replicas pins the directory dimension: 1 keeps only the seed
    // (single-directory) cells, >1 only the replicated ones — the label
    // must stay truthful under the driver's override.
    if (options.replicas && replicated_dir != (*options.replicas > 1)) {
      continue;
    }
    for (const std::uint32_t replicas : {1u, 2u, 4u}) {
      if (replicated_dir && replicas == 1) continue;  // same as the seed cell
      // The driver's override pins directory_replicas for every cell;
      // keep only the cells whose directory factor equals the pin so
      // the replicas dim stays truthful ("directory replicated to the
      // same factor as the pool").
      if (replicated_dir && options.replicas && *options.replicas != replicas) {
        continue;
      }
      for (const std::size_t clients : bench::SweepOr(
               options.clients, {1, 10, 20, 30, 40, 50, 60, 70})) {
        ScenarioConfig config;
        config.machines = machines;
        config.clusters = 1;
        config.pool_replicas = replicas;
        config.directory_replicas = replicated_dir ? replicas : 1;
        config.clients = clients;
        // Seed cells keep their historical seeds (their numbers must not
        // move); replicated-directory cells get a disjoint seed block.
        config.seed =
            bench::CellSeed(options, 8000,
                            (replicated_dir ? 10000 : 0) + replicas * 100 +
                                clients);
        ScenarioCell row;
        row.labels.emplace_back("directory",
                                replicated_dir ? "replicated" : "single");
        row.dims.emplace_back("replicas", static_cast<double>(replicas));
        row.dims.emplace_back("clients", static_cast<double>(clients));
        sweep.Add(std::move(config), std::move(row),
                  replicated_dir ? kStandard | kReplica : kStandard);
      }
    }
  }
  return sweep.Run(
      "shape check: replication improves throughput for a fixed machine "
      "set — the response-time-vs-clients slope drops roughly with the "
      "number of concurrent pool processes (paper Fig. 8); the "
      "replicated-directory cells track the seed curves with a small "
      "constant anti-entropy overhead (sync_bytes), the fig8 claim that "
      "yellow-pages replication does not cost scheduling quality.");
}

const ScenarioRegistrar kRegistrar(
    "fig8_replication",
    "replicating one pool into 1/2/4 concurrent pool processes", RunFig8);

}  // namespace
}  // namespace actyp
