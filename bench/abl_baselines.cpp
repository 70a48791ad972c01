// Ablation: the ActYP pipeline vs the centralized-scheduler and
// Condor-style matchmaker baselines (§8). Same 3,200-machine fleet, same
// per-machine scan cost, same closed-loop clients — the differences are
// purely architectural: decentralized pools vs one scan of the whole
// database per query vs batched negotiation cycles.
#include <memory>
#include <string>
#include <vector>

#include "baseline/central.hpp"
#include "baseline/matchmaker.hpp"
#include "bench_common.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"
#include "workload/client.hpp"
#include "workload/generator.hpp"

namespace actyp {
namespace {

// Assembles fleet + baseline scheduler + clients on the standard
// topology and measures client response time.
bench::CellMetrics RunBaseline(const std::string& kind,
                               std::size_t machines, std::size_t clients,
                               std::uint64_t seed, double time_scale) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), seed);
  network.AddHost("alpha", 12);
  network.AddHost("clients", static_cast<int>(clients));

  db::ResourceDatabase database;
  Rng rng(seed);
  workload::FleetSpec fleet;
  fleet.machine_count = machines;
  fleet.cluster_count = 4;
  BuildFleet(fleet, rng, &database, nullptr);

  net::Address entry = "sched";
  std::shared_ptr<baseline::CentralScheduler> central;
  std::shared_ptr<baseline::Matchmaker> matchmaker;
  if (kind == "central") {
    central = std::make_shared<baseline::CentralScheduler>(
        baseline::CentralSchedulerConfig{}, &database);
    network.AddNode("sched", central, {"alpha", 1});
  } else {
    baseline::MatchmakerConfig config;
    config.cycle_period = Seconds(5.0);
    matchmaker = std::make_shared<baseline::Matchmaker>(config, &database);
    network.AddNode("sched", matchmaker, {"alpha", 1});
  }

  workload::QuerySpec query_spec;
  query_spec.cluster_count = 4;
  workload::QueryGenerator generator(query_spec);
  workload::ResponseCollector collector;
  std::vector<std::shared_ptr<workload::ClientNode>> client_nodes;
  for (std::size_t i = 0; i < clients; ++i) {
    workload::ClientConfig config;
    config.client_id = static_cast<std::uint32_t>(i + 1);
    config.entry = entry;
    config.make_query = [generator](Rng& r) { return generator.Next(r); };
    config.collector = &collector;
    auto client = std::make_shared<workload::ClientNode>(config);
    client_nodes.push_back(client);
    network.AddNode("client" + std::to_string(i), client, {"clients", 1});
  }

  kernel.RunUntil(Seconds(3 * time_scale));
  collector.Reset();
  kernel.RunUntil(Seconds(18 * time_scale));

  bench::CellMetrics metrics;
  metrics.AddResponse(collector);
  // Journal-fed scan-cache refresh work (see baseline::ScanCache): far
  // below completed * fleet once the mirror is primed.
  metrics.Add(bench::kEngine, "entries_refreshed",
              static_cast<double>(
                  central != nullptr ? central->stats().entries_refreshed
                                     : matchmaker->stats().entries_refreshed));
  return metrics;
}

ScenarioReport RunAblBaselines(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.scenario = "abl_baselines";
  report.title = "Ablation — ActYP pipeline vs centralized baselines";
  const std::size_t machines = options.machines.value_or(3200);
  std::vector<bench::CellTask> tasks;
  for (const std::size_t clients :
       bench::SweepOr(options.clients, {8, 32, 64})) {
    {
      ScenarioConfig config;
      config.machines = machines;
      config.clusters = 4;
      config.clients = clients;
      config.seed = bench::CellSeed(options, 100, clients);
      tasks.push_back([config = std::move(config), &options, clients] {
        const auto metrics =
            bench::RunCell(config, options, bench::ScaledSeconds(options, 3),
                           bench::ScaledSeconds(options, 15));
        ScenarioCell cell;
        cell.labels.emplace_back("system", "actyp");
        cell.dims.emplace_back("clients", static_cast<double>(clients));
        metrics.Select(bench::kStandard, &cell);
        return cell;
      });
    }
    for (const char* kind : {"central", "matchmaker"}) {
      tasks.push_back([kind, machines, clients, &options] {
        const auto metrics =
            RunBaseline(kind, machines, clients,
                        bench::CellSeed(options, 200, clients),
                        options.time_scale);
        ScenarioCell cell;
        cell.labels.emplace_back("system", kind);
        cell.dims.emplace_back("clients", static_cast<double>(clients));
        metrics.Select(bench::kResponse | bench::kEngine, &cell);
        return cell;
      });
    }
  }
  bench::RunCellTasks(options, std::move(tasks), &report);
  report.note =
      "shape check: ActYP's pooled, decentralized scan beats the "
      "centralized full-database scan as clients grow, and beats the "
      "matchmaker's negotiation-cycle latency floor (>= one 5s cycle for "
      "closed-loop clients) by orders of magnitude for the short jobs "
      "PUNCH serves.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "abl_baselines",
    "ActYP pipeline vs centralized scheduler and matchmaker baselines",
    RunAblBaselines);

}  // namespace
}  // namespace actyp
