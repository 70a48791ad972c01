// Centralized scheduler baseline: one node owning the whole white pages,
// scanning every machine per query (the cluster-management-system model
// of §8 — Grid Engine / PBS / DQS "typically utilize centralized
// schedulers"). Used by the baseline ablation benches as the contrast to
// the decentralized, pipelined ActYP.
#pragma once

#include <map>

#include "db/database.hpp"
#include "net/node.hpp"
#include "pipeline/cost_model.hpp"

namespace actyp::baseline {

struct CentralSchedulerConfig {
  std::string name = "central";
  // Per-machine scan cost; kept identical to the pool scan cost so the
  // comparison isolates the architecture, not the constants.
  pipeline::CostModel costs;
  bool allow_oversubscribe = true;
};

struct CentralStats {
  std::uint64_t queries = 0;
  std::uint64_t allocations = 0;
  std::uint64_t failures = 0;
  std::uint64_t releases = 0;
};

class CentralScheduler final : public net::Node {
 public:
  CentralScheduler(CentralSchedulerConfig config,
                   db::ResourceDatabase* database);

  void OnMessage(const net::Envelope& envelope, net::NodeContext& ctx) override;

  [[nodiscard]] const CentralStats& stats() const { return stats_; }

 private:
  void HandleQuery(const net::Envelope& envelope, net::NodeContext& ctx);
  void HandleRelease(const net::Envelope& envelope, net::NodeContext& ctx);

  CentralSchedulerConfig config_;
  db::ResourceDatabase* database_;
  // The scheduler's own view of placed jobs (machine id -> count).
  std::map<db::MachineId, int> jobs_;
  std::map<std::string, db::MachineId> session_machine_;
  CentralStats stats_;
  std::uint64_t session_seq_ = 0;
};

}  // namespace actyp::baseline
