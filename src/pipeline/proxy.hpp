// ProxyServer (§5.2.3): "If the resource pool is on a different machine,
// the pool manager starts it via a proxy server on the remote machine.
// (This server is a part of the ActYP service, and is assumed to be kept
// alive via a cron process.)"
//
// The proxy receives create-pool requests, instantiates a ResourcePool
// node on its own host (charging the white-pages walk to its own service
// time), and forwards the originating query to the new pool so the pool
// manager stays stateless.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/policy.hpp"
#include "db/shadow.hpp"
#include "directory/directory.hpp"
#include "net/node.hpp"
#include "pipeline/cost_model.hpp"
#include "pipeline/resource_pool.hpp"

namespace actyp::pipeline {

struct ProxyConfig {
  std::string host = "localhost";  // pools are placed on this host
  // Defaults applied to pools this proxy creates.
  std::string pool_policy = "least-load";
  SimDuration pool_resort_period = Seconds(2.0);
  CostModel costs;
  // Handed to pools this proxy creates (not owned; null disables
  // profiling on them).
  profile::StageProfiler* profiler = nullptr;
  // Flight recorder handed to created pools (same ownership rules).
  obs::FlightRecorder* recorder = nullptr;
};

struct ProxyStats {
  std::uint64_t pools_created = 0;
  std::uint64_t create_failures = 0;
};

class ProxyServer final : public net::Node {
 public:
  ProxyServer(ProxyConfig config, net::Network* network,
              db::ResourceDatabase* database,
              directory::DirectoryApi* directory,
              db::ShadowAccountRegistry* shadows,
              db::PolicyRegistry* policies);

  void OnMessage(const net::Envelope& envelope, net::NodeContext& ctx) override;

  [[nodiscard]] const ProxyStats& stats() const { return stats_; }
  // Every pool this proxy created, in creation order, crashed ones
  // included.
  [[nodiscard]] const std::vector<std::shared_ptr<ResourcePool>>& pools()
      const {
    return pools_;
  }

 private:
  void HandleCreatePool(const net::Envelope& envelope, net::NodeContext& ctx);

  ProxyConfig config_;
  net::Network* network_;
  db::ResourceDatabase* database_;
  directory::DirectoryApi* directory_;
  db::ShadowAccountRegistry* shadows_;
  db::PolicyRegistry* policies_;
  ProxyStats stats_;
  std::vector<std::shared_ptr<ResourcePool>> pools_;
  std::uint32_t next_pool_ = 0;
};

}  // namespace actyp::pipeline
