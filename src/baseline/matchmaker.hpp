// Condor-style matchmaker baseline (§8): a centralized, cycle-driven
// matcher. Queries queue until the next negotiation cycle; each cycle
// scans the white pages for every queued request and replies with the
// best (rank = lowest load) match. This reproduces Condor's
// receiver-initiated, batch-matched behaviour — excellent throughput for
// long jobs, but a built-in half-cycle latency floor that ActYP's
// pipeline avoids for the short interactive jobs PUNCH serves (Fig. 9).
#pragma once

#include <deque>
#include <map>

#include "db/database.hpp"
#include "net/node.hpp"
#include "pipeline/cost_model.hpp"

namespace actyp::baseline {

struct MatchmakerConfig {
  std::string name = "matchmaker";
  SimDuration cycle_period = Seconds(5.0);  // negotiation interval
  pipeline::CostModel costs;
};

struct MatchmakerStats {
  std::uint64_t queries = 0;
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t cycles = 0;
  std::uint64_t releases = 0;
};

class Matchmaker final : public net::Node {
 public:
  Matchmaker(MatchmakerConfig config, db::ResourceDatabase* database);

  void OnStart(net::NodeContext& ctx) override;
  void OnMessage(const net::Envelope& envelope, net::NodeContext& ctx) override;

  [[nodiscard]] const MatchmakerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

 private:
  void RunCycle(net::NodeContext& ctx);

  MatchmakerConfig config_;
  db::ResourceDatabase* database_;
  std::deque<net::Envelope> queue_;
  std::map<db::MachineId, int> jobs_;
  std::map<std::string, db::MachineId> session_machine_;
  MatchmakerStats stats_;
  std::uint64_t session_seq_ = 0;
};

}  // namespace actyp::baseline
