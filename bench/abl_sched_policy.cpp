// Ablation: scheduling objectives (§5.2.3 lets pool objects be
// configured with different objectives). Jobs hold machines for an
// exponential service time, so the placement decision matters: this
// scenario compares the policies on response time and on how hard the
// pool has to oversubscribe.
#include "bench_common.hpp"

namespace actyp {
namespace {

ScenarioReport RunAblSchedPolicy(const ScenarioRunOptions& options) {
  bench::Sweep sweep(options, "Ablation — scheduling policy under held jobs");
  for (const char* policy :
       {"least-load", "linear-least-load", "most-memory", "fastest",
        "round-robin", "random"}) {
    ScenarioConfig config;
    // Demand exceeds supply: 48 closed-loop clients holding ~8s jobs on
    // 40 machines, so placement quality shows up as forced
    // oversubscription and response-time spread.
    config.machines = options.machines.value_or(40);
    config.clusters = 1;
    config.clients = options.clients.value_or(48);
    config.policy = policy;
    config.seed = options.seed.value_or(31337);
    config.job_duration = [](Rng& rng) {
      return static_cast<SimDuration>(rng.Exponential(8e6));
    };
    ScenarioCell row;
    row.labels.emplace_back("policy", policy);
    sweep.Add(
        std::move(config), std::move(row),
        [](const CellMetrics& metrics, ScenarioCell* cell) {
          metrics.Select({"mean_s", "p95_s", "completed", "oversubscribed",
                          "entries_examined"},
                         cell);
          metrics.Select(kStages, cell);
        },
        5, 60);
  }
  return sweep.Run(
      "shape check: at saturation every policy is forced to oversubscribe "
      "occasionally and throughput converges (the load ceiling in "
      "Eligible() equalizes placement); the residual difference is "
      "per-query scan cost — round-robin/random stop at the first eligible "
      "machine and linear-least-load examines the whole cache, while the "
      "indexed least-load answers the same allocations in near-constant "
      "entries_examined.");
}

const ScenarioRegistrar kRegistrar(
    "abl_sched_policy",
    "placement policies under held jobs at saturation", RunAblSchedPolicy);

}  // namespace
}  // namespace actyp
