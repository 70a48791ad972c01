// Static-aggregation baseline: a frontend routing queries to a FIXED set
// of pre-partitioned pools by a configured classification key, stamping
// the sched hints the pools read. This is the "multiple submit queues"
// model of cluster management systems (§8), the architecture behind the
// paper's second key claim: static aggregation is inadequate when the
// job mix shifts, because a pool sized for yesterday's mix becomes a hot
// spot under today's. baseline_test covers it; abl_dynamic_aggregation
// measures that claim with four fixed ActYP pools as its static foil.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "pipeline/cost_model.hpp"

namespace actyp::baseline {

struct StaticPartitionConfig {
  std::string name = "static-frontend";
  // rsrc key whose value selects the partition (e.g. "cluster").
  std::string route_key = "cluster";
  // value -> pool address; queries whose value is missing or unknown go
  // to `fallback` (empty = fail).
  std::map<std::string, net::Address> routes;
  net::Address fallback;
  pipeline::CostModel costs;
};

struct StaticPartitionStats {
  std::uint64_t queries = 0;
  std::uint64_t routed = 0;
  std::uint64_t failures = 0;
};

class StaticPartitionFrontend final : public net::Node {
 public:
  explicit StaticPartitionFrontend(StaticPartitionConfig config);

  void OnMessage(const net::Envelope& envelope, net::NodeContext& ctx) override;

  [[nodiscard]] const StaticPartitionStats& stats() const { return stats_; }

 private:
  StaticPartitionConfig config_;
  StaticPartitionStats stats_;
};

}  // namespace actyp::baseline
