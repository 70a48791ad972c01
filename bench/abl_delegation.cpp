// Ablation: pool-manager delegation (§5.2.2). A query that no local pool
// manager can satisfy walks the peer list — each hop appends the manager
// to the visited list and decrements the TTL, exactly like an IP packet.
// This scenario measures how long an unsatisfiable query takes to fail
// as a function of its TTL and the number of peers.
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "directory/directory.hpp"
#include "pipeline/pool_manager.hpp"
#include "pipeline/protocol.hpp"
#include "query/parser.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"

namespace actyp {
namespace {

struct Probe final : net::Node {
  void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
    if (env.message.type == net::msg::kFailure) {
      failed_at = ctx.Now();
      error = env.message.Header(net::hdr::kError);
    }
  }
  SimTime failed_at = -1;
  std::string error;
};

ScenarioReport RunAblDelegation(const ScenarioRunOptions& options) {
  bench::Sweep sweep(options,
                     "Ablation — delegation chains (TTL walk to failure)");
  for (const int peers : {4, 8, 16}) {
    for (const int ttl : {2, 4, 8, 16}) {
      sweep.Add([peers, ttl, &options] {
        // Declared before the network so it outlives the pool-manager
        // nodes holding a pointer to it.
        profile::StageProfiler profiler;
        simnet::SimKernel kernel;
        simnet::SimNetwork network(
            &kernel, simnet::Topology::Lan(),
            bench::CellSeed(options, 900, peers * 31 + ttl));
        network.AddHost("alpha", 12);
        directory::DirectoryService directory;
        for (int i = 0; i < peers; ++i) {
          pipeline::PoolManagerConfig config;
          config.name = "pm" + std::to_string(i);
          config.allow_create = false;  // force delegation
          if (options.profile) config.profiler = &profiler;
          network.AddNode(
              config.name,
              std::make_shared<pipeline::PoolManager>(config, &directory),
              {"alpha", 1});
        }
        auto probe = std::make_shared<Probe>();
        network.AddNode("probe", probe, {"alpha", 1});

        auto q = query::Parser::ParseBasic("punch.rsrc.arch = vax\n");
        net::Message m{net::msg::kQuery};
        m.SetHeader(net::hdr::kReplyTo, "probe");
        m.SetHeader(net::hdr::kRequestId, "1");
        pipeline::StampSchedHints(*q, &m);
        m.SetHeader(pipeline::phdr::kTtl, std::to_string(ttl));
        m.body = q->ToText();
        network.Post("probe", "pm0", std::move(m));
        kernel.Run();

        const bool ttl_hit = probe->error.find("TTL") != std::string::npos;
        ScenarioCell cell;
        cell.labels.emplace_back(
            "terminated_by", ttl_hit ? "ttl-expired" : "all-peers-visited");
        cell.dims.emplace_back("ttl", ttl);
        cell.dims.emplace_back("peers", peers);
        cell.metrics.emplace_back("time_to_fail_ms",
                                  ToMillis(probe->failed_at));
        if (options.profile) {
          // Only the pool-manager hop exists in this micro-topology.
          CellMetrics stages;
          stages.AddStages(profiler);
          stages.Select(
              {"pm_delegate_p50_s", "pm_delegate_p95_s", "pm_delegate_p99_s"},
              &cell);
        }
        return cell;
      });
    }
  }
  return sweep.Run(
      "shape check: time-to-failure grows with min(ttl, peers); with few "
      "peers the visited list terminates the walk, with many peers the TTL "
      "does — queries can never circulate forever.");
}

const ScenarioRegistrar kRegistrar(
    "abl_delegation",
    "time-to-failure of unsatisfiable queries walking the peer list",
    RunAblDelegation);

}  // namespace
}  // namespace actyp
