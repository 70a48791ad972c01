// Reintegrator: the query-manager stage at the end of the pipeline that
// reassembles composite-query fragments (§5.2.1's TCP/IP-fragmentation
// analogy), split-pool fan-outs (Fig. 7), and QoS duplicates (§6).
//
// One aggregation mode, §6's best response: wait for every fragment,
// forward the allocation with the lowest machine load, release the
// rest. A request whose fragments never all arrive times out.
#pragma once

#include <cstdint>
#include <map>

#include "net/node.hpp"
#include "pipeline/cost_model.hpp"
#include "pipeline/protocol.hpp"
#include "profile/stage_profiler.hpp"

namespace actyp::pipeline {

struct ReintegratorConfig {
  std::string name;
  // Requests idle longer than this are failed and dropped (lost
  // fragments must not leak state).
  SimDuration request_timeout = Seconds(30.0);
  SimDuration sweep_period = Seconds(10.0);
  CostModel costs;
  // Stage-span sink (not owned; must outlive the node). Null disables
  // profiling.
  profile::StageProfiler* profiler = nullptr;
};

struct ReintegratorStats {
  std::uint64_t fragments = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t released_duplicates = 0;
};

class Reintegrator final : public net::Node {
 public:
  explicit Reintegrator(ReintegratorConfig config);

  void OnStart(net::NodeContext& ctx) override;
  void OnMessage(const net::Envelope& envelope, net::NodeContext& ctx) override;

  [[nodiscard]] const ReintegratorStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t open_requests() const { return requests_.size(); }

 private:
  struct PendingRequest {
    net::Address final_reply_to;
    std::uint32_t expected = 1;
    std::uint32_t received = 0;
    bool has_best = false;
    Allocation best;
    SimTime last_activity = 0;
  };

  void HandleResult(const net::Envelope& envelope, net::NodeContext& ctx);
  void FinishIfComplete(std::uint64_t request_id, PendingRequest& pending,
                        net::NodeContext& ctx);
  void ReleaseAllocation(const Allocation& allocation, net::NodeContext& ctx);

  ReintegratorConfig config_;
  std::map<std::uint64_t, PendingRequest> requests_;
  ReintegratorStats stats_;
};

}  // namespace actyp::pipeline
