// PoolManager (§5.2.2): routes each query by the pool name its sched
// hints carry (the signature/identifier scheme, computed once at the
// entry stage), selects a random instance from the local directory
// service (or fans out to every segment of a split pool),
// creates pools through a proxy server when none exist, and delegates to
// peer pool managers with a TTL + visited list when it cannot satisfy
// the query locally.
#pragma once

#include <string>
#include <vector>

#include "directory/directory.hpp"
#include "net/node.hpp"
#include "pipeline/cost_model.hpp"
#include "profile/stage_profiler.hpp"

namespace actyp::pipeline {

struct PoolManagerConfig {
  std::string name;  // appears in queries' visited lists
  // Proxy servers that can create pools on this manager's behalf, tried
  // round-robin; empty = this manager cannot create pools.
  std::vector<net::Address> proxies;
  // Reintegrator that aggregates split-pool fan-out results; required
  // when the directory may contain segmented pools.
  net::Address reintegrator;
  // Allow creating a new pool when the directory has no instance.
  bool allow_create = true;
  // Allow delegating to peer pool managers (TTL-guarded).
  bool allow_delegate = true;
  CostModel costs;
  // Stage-span sink (not owned; must outlive the node, including any
  // fault-restart copies of this config). Null disables profiling.
  profile::StageProfiler* profiler = nullptr;
};

struct PoolManagerStats {
  std::uint64_t queries = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t fanouts = 0;
  std::uint64_t created = 0;
  std::uint64_t delegated = 0;
  std::uint64_t failures = 0;
};

class PoolManager final : public net::Node {
 public:
  PoolManager(PoolManagerConfig config, directory::DirectoryApi* directory);

  void OnStart(net::NodeContext& ctx) override;
  void OnMessage(const net::Envelope& envelope, net::NodeContext& ctx) override;

  [[nodiscard]] const PoolManagerStats& stats() const { return stats_; }

 private:
  void HandleQuery(const net::Envelope& envelope, net::NodeContext& ctx);
  void Fail(const net::Envelope& envelope, net::NodeContext& ctx,
            const std::string& reason);
  // Forwards the query to an unvisited peer, tracking TTL and the
  // visited list on headers.
  void Delegate(const net::Envelope& envelope, net::NodeContext& ctx);

  PoolManagerConfig config_;
  directory::DirectoryApi* directory_;
  PoolManagerStats stats_;
  std::size_t next_proxy_ = 0;
};

}  // namespace actyp::pipeline
