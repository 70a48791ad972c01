#include "chaos/invariants.hpp"

#include <cstdio>
#include <functional>
#include <set>
#include <string_view>

#include "actyp/scenario.hpp"

namespace actyp::chaos {
namespace {

std::string FormatRate(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

}  // namespace

std::string FormatViolations(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& violation : violations) {
    if (!out.empty()) out += "; ";
    out += violation.invariant + ": " + violation.detail;
  }
  return out;
}

void InvariantChecker::BeginQuiesce(SimScenario& scenario) {
  quiesce_marked_ = true;
  quiesce_completed_ = scenario.collector().completed();
  quiesce_failures_ = scenario.collector().failures();
}

std::vector<Violation> InvariantChecker::Check(
    SimScenario& scenario, const Options& options) const {
  std::vector<Violation> violations;

  // Request conservation: a drained closed loop has no in-flight
  // request, no held allocation, and per-client bookkeeping that adds
  // up — every sent interaction became an allocation or a failure.
  for (const auto& client : scenario.clients()) {
    const auto& stats = client->stats();
    const std::string who = "client " + std::to_string(client->client_id());
    if (client->inflight_request() != 0) {
      violations.push_back(
          {"request-conservation",
           who + ": request " + std::to_string(client->inflight_request()) +
               " never reached a terminal state"});
    } else if (stats.sent != stats.allocations + stats.failures) {
      violations.push_back(
          {"request-conservation",
           who + ": sent=" + std::to_string(stats.sent) +
               " != allocations=" + std::to_string(stats.allocations) +
               " + failures=" + std::to_string(stats.failures)});
    }
    if (client->held_count() != 0) {
      violations.push_back(
          {"request-conservation",
           who + " still holds " + std::to_string(client->held_count()) +
               " allocation(s) after drain"});
    }
  }

  const auto live_pools = scenario.LivePools();

  if (options.check_claims) {
    // Every taken_by in the white pages must belong to a live pool
    // instance (segments claim under "<pool>#<segment>", replicas share
    // the pool name).
    std::set<std::string, std::less<>> valid;
    for (const auto& [address, pool] : live_pools) {
      const auto& config = pool->config();
      valid.insert(config.claim_name.empty() ? config.pool_name
                                             : config.claim_name);
    }
    std::size_t leaked = 0;
    std::string first;
    scenario.database().VisitAll([&](const db::MachineRecord& record) {
      const std::string_view claim = record.taken_by.text();
      if (claim.empty() || valid.count(claim) != 0) return;
      ++leaked;
      if (first.empty()) {
        first = "machine " + std::to_string(record.id) + " taken by '" +
                std::string(claim) + "'";
      }
    });
    if (leaked > 0) {
      violations.push_back(
          {"leaked-claim",
           std::to_string(leaked) +
               " machine(s) claimed by no live pool instance (first: " +
               first + ")"});
    }
  }

  if (options.check_sessions) {
    for (const auto& [address, pool] : live_pools) {
      if (pool->active_sessions() != 0) {
        violations.push_back(
            {"leaked-session",
             "pool " + address + " holds " +
                 std::to_string(pool->active_sessions()) +
                 " open session(s) after drain"});
      }
    }
  }

  if (auto* group = scenario.replica_group();
      group != nullptr && !group->Converged()) {
    const auto stats = scenario.replica_stats();
    violations.push_back(
        {"replica-convergence",
         "replica group still diverged after drain (max_staleness_s=" +
             FormatRate(stats.max_staleness_s) + ")"});
  }

  if (quiesce_marked_) {
    const std::uint64_t completed =
        scenario.collector().completed() - quiesce_completed_;
    const std::uint64_t failures =
        scenario.collector().failures() - quiesce_failures_;
    if (auto violation =
            CheckSuccessFloor(completed, failures, options.success_floor)) {
      violations.push_back(std::move(*violation));
    }
  }

  if (!scenario.lp_mode()) {
    auto& kernel = scenario.kernel();
    if (auto violation =
            CheckTimerAccounting(kernel.scheduled(), kernel.executed(),
                                 kernel.cancelled(), kernel.pending())) {
      violations.push_back(std::move(*violation));
    }
  }
  return violations;
}

std::optional<Violation> InvariantChecker::CheckTimerAccounting(
    std::uint64_t scheduled, std::uint64_t executed, std::uint64_t cancelled,
    std::uint64_t pending) {
  if (executed + cancelled + pending == scheduled) return std::nullopt;
  return Violation{
      "timer-conservation",
      "kernel accounting leak: scheduled=" + std::to_string(scheduled) +
          " != executed=" + std::to_string(executed) +
          " + cancelled=" + std::to_string(cancelled) +
          " + pending=" + std::to_string(pending)};
}

std::optional<Violation> InvariantChecker::CheckSuccessFloor(
    std::uint64_t completed, std::uint64_t failures, double floor) {
  const std::uint64_t attempts = completed + failures;
  if (floor <= 0 || attempts == 0) return std::nullopt;
  const double rate =
      static_cast<double>(completed) / static_cast<double>(attempts);
  if (rate >= floor) return std::nullopt;
  return Violation{"success-floor",
                   "post-quiesce success rate " + FormatRate(rate) +
                       " < floor " + FormatRate(floor) + " (" +
                       std::to_string(completed) + "/" +
                       std::to_string(attempts) + ")"};
}

}  // namespace actyp::chaos
