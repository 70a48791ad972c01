// Synthetic fleet and query generators for the controlled experiments.
//
// FleetSpec builds a white-pages database like the paper's experimental
// one: N machines uniformly distributed across C clusters (the pools of
// Figs. 4-8 aggregate by cluster), with realistic architecture, memory,
// and speed distributions plus shadow-account pools.
//
// QueryGenerator draws queries that stripe randomly across clusters
// ("client queries were distributed randomly across pools"), from one
// text per cluster rendered once.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "db/database.hpp"
#include "db/shadow.hpp"

namespace actyp::workload {

struct FleetSpec {
  std::size_t machine_count = 3200;
  std::size_t cluster_count = 1;  // pools aggregate on the cluster param
  // Architectures with selection weights.
  std::vector<std::pair<std::string, double>> archs = {
      {"sun", 0.45}, {"hp", 0.25}, {"linux", 0.20}, {"sgi", 0.10}};
  std::vector<double> memory_choices_mb = {64, 128, 256, 512, 1024};
  double min_speed = 0.5, max_speed = 3.0;
  std::string domain = "purdue";
  std::vector<std::string> user_groups;  // empty = unrestricted
  std::vector<std::string> tool_groups = {"simulation", "cad", "general"};
  std::size_t shadow_accounts_per_machine = 8;
  std::uint16_t base_port = 7000;
  // Explicit cluster ids to stripe machines across (machine j lands in
  // cluster_ids[j % size]). Empty = 0..cluster_count-1. Used by multi-
  // site scenarios, where each site's white pages holds only the
  // clusters that site owns while cluster numbering stays global.
  std::vector<std::size_t> cluster_ids;
};

// Populates `database` (and shadow pools, when `shadows` != nullptr)
// according to the spec. Machine i lands in cluster i % cluster_count,
// giving the uniform distribution of machines across pools used in the
// paper's experiments.
void BuildFleet(const FleetSpec& spec, Rng& rng, db::ResourceDatabase* database,
                db::ShadowAccountRegistry* shadows);

// A query generator: renders native query text. The default template
// requests a specific cluster chosen uniformly at random, matching the
// paper's experimental setup; hot_fraction biases toward cluster 0 to
// model class-assignment locality.
struct QuerySpec {
  std::size_t cluster_count = 1;
  double hot_fraction = 0.0;  // probability of targeting cluster 0
  std::string user_login = "client";
  std::string access_group = "ece";
  bool include_memory_constraint = false;
  double min_memory_mb = 10;
  std::string domain = "purdue";
};

class QueryGenerator {
 public:
  // Renders every cluster's text once, into a table that copies of the
  // generator share.
  explicit QueryGenerator(QuerySpec spec);

  // One query; the target cluster is sampled from `rng`. The text lives
  // as long as the generator or any copy of it.
  [[nodiscard]] const std::string& Next(Rng& rng) const;

  // The query that aggregates cluster `c` (used to pre-create pools);
  // a cluster past the spec's count is rendered on demand.
  [[nodiscard]] std::string ForCluster(std::size_t c) const;

 private:
  [[nodiscard]] std::string Render(std::size_t c) const;

  QuerySpec spec_;
  // Cluster c's text at index c, for c < max(1, cluster_count).
  std::shared_ptr<const std::vector<std::string>> texts_;
};

}  // namespace actyp::workload
