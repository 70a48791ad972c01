// Closed-loop client node: issues a query, waits for the allocation (or
// failure), optionally holds the machine for a job duration, releases
// it, thinks, and repeats — "clients continuously send queries to the
// ActYP service" (Fig. 6) is the default zero-think configuration.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/node.hpp"
#include "pipeline/protocol.hpp"
#include "profile/stage_profiler.hpp"

namespace actyp::workload {

// Thread-safe sink for client-side measurements (shared by all clients
// of one experiment).
class ResponseCollector {
 public:
  void RecordResponse(SimDuration response_time);
  void RecordFailure();
  void Reset();
  // Folds `other` into this collector (Welford merge + sampler replay).
  // Call in a fixed order across sources for deterministic quantiles.
  void MergeFrom(const ResponseCollector& other);

  [[nodiscard]] RunningStats response_stats() const;
  [[nodiscard]] double QuantileSeconds(double q) const;
  [[nodiscard]] std::uint64_t failures() const;
  [[nodiscard]] std::uint64_t completed() const;

 private:
  mutable std::mutex mu_;
  RunningStats response_;
  QuantileSampler quantiles_;
  std::uint64_t failures_ = 0;
};

struct ClientConfig {
  std::uint32_t client_id = 0;
  net::Address entry;  // query-manager address
  // Alternate query-manager entry points: retries rotate through
  // [entry, fallback_entries...], so a client whose entry stage died
  // fails over instead of re-sending into the void.
  std::vector<net::Address> fallback_entries;
  std::function<std::string(Rng&)> make_query;
  // Think time between completing one interaction and issuing the next.
  SimDuration think_time = 0;
  // Job duration sampler; nullptr (or zero result) releases immediately
  // after the allocation arrives (pure scheduling load, as in Figs 4-8).
  std::function<SimDuration(Rng&)> job_duration;
  std::size_t max_requests = 0;  // 0 = unlimited
  ResponseCollector* collector = nullptr;
  // Stage-span sink for the client_issue / reply spans (not owned).
  // Null disables profiling.
  profile::StageProfiler* profiler = nullptr;
  // Stop issuing queries after this sim time (0 = no horizon).
  SimTime horizon = 0;
  // Give up on an unanswered request after this long and move on
  // (counts as a failure); 0 disables. Needed on lossy transports.
  SimDuration request_timeout = 0;
  // Resend a timed-out request up to this many times before giving up
  // (0 = fail on the first timeout, the legacy behavior). Retries wait a
  // seeded, jittered exponential backoff starting at `retry_backoff`,
  // so lossy-scenario success rates recover instead of burning the
  // give-up timer once per interaction.
  std::size_t retry_max = 0;
  SimDuration retry_backoff = Millis(250);
};

struct ClientStatsLocal {
  std::uint64_t sent = 0;
  std::uint64_t allocations = 0;
  std::uint64_t failures = 0;
  std::uint64_t retries = 0;
};

class ClientNode final : public net::Node {
 public:
  explicit ClientNode(ClientConfig config);

  void OnStart(net::NodeContext& ctx) override;
  void OnMessage(const net::Envelope& envelope, net::NodeContext& ctx) override;

  [[nodiscard]] const ClientStatsLocal& stats() const { return stats_; }

  // Chaos-invariant probes: the in-flight request id (0 = every issued
  // request reached a terminal state) and allocations still held.
  [[nodiscard]] std::uint64_t inflight_request() const {
    return inflight_request_;
  }
  [[nodiscard]] std::size_t held_count() const { return held_.size(); }
  [[nodiscard]] std::uint32_t client_id() const { return config_.client_id; }

 private:
  void SendNextQuery(net::NodeContext& ctx);
  // Entry point for the current attempt: the configured entry first,
  // then the fallbacks in rotation as retries accumulate.
  [[nodiscard]] const net::Address& EntryForAttempt() const;
  // Sends the in-flight request to the current attempt's entry point
  // and arms the give-up timer (shared by first attempts and retries).
  void PostInflightQuery(net::NodeContext& ctx);
  // Re-issues the in-flight request (same id and body) and re-arms the
  // give-up timer; response time still measures from the first send.
  void ResendInflight(net::NodeContext& ctx);
  void CompleteInteraction(net::NodeContext& ctx);

  ClientConfig config_;
  ClientStatsLocal stats_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t inflight_request_ = 0;
  SimTime inflight_sent_at_ = 0;
  std::string inflight_body_;   // kept for retries when they can happen
  std::size_t attempt_ = 0;     // retries used on the in-flight request
  // Give-up timer for the in-flight request; cancelled when the reply
  // arrives so lossy runs do not drown in dead timeout events.
  net::TimerId timeout_timer_ = 0;
  std::map<std::uint64_t, pipeline::Allocation> held_;  // keyed by request id
};

}  // namespace actyp::workload
