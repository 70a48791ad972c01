#include "pipeline/reintegrator.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace actyp::pipeline {

Reintegrator::Reintegrator(ReintegratorConfig config)
    : config_(std::move(config)) {}

void Reintegrator::OnStart(net::NodeContext& ctx) {
  if (config_.sweep_period > 0) {
    ctx.ScheduleSelf(config_.sweep_period, net::Message{net::msg::kTick});
  }
}

void Reintegrator::OnMessage(const net::Envelope& envelope,
                             net::NodeContext& ctx) {
  const net::Message& message = envelope.message;
  if (message.type == net::msg::kAllocation ||
      message.type == net::msg::kFailure) {
    HandleResult(envelope, ctx);
    if (config_.profiler != nullptr) {
      config_.profiler->Record(profile::Stage::kReintegrate,
                               RequestIdOf(message), envelope.sent_at,
                               ctx.Now() + ctx.Consumed());
    }
    return;
  }
  if (message.type == net::msg::kTick) {
    const SimTime now = ctx.Now();
    for (auto it = requests_.begin(); it != requests_.end();) {
      PendingRequest& pending = it->second;
      if (now - pending.last_activity > config_.request_timeout) {
        ++stats_.timed_out;
        if (!pending.final_reply_to.empty()) {
          ctx.Send(pending.final_reply_to,
                   MakeFailureMessage(it->first,
                                      "reintegration timeout: " +
                                          std::to_string(pending.received) +
                                          "/" +
                                          std::to_string(pending.expected) +
                                          " fragments"));
        }
        it = requests_.erase(it);
      } else {
        ++it;
      }
    }
    ctx.ScheduleSelf(config_.sweep_period, net::Message{net::msg::kTick});
    return;
  }
  ACTYP_DEBUG << "reintegrator '" << config_.name
              << "': ignoring message type '" << message.type << "'";
}

void Reintegrator::HandleResult(const net::Envelope& envelope,
                                net::NodeContext& ctx) {
  const net::Message& message = envelope.message;
  ++stats_.fragments;
  ctx.Consume(config_.costs.reintegrate_per_fragment);

  const std::uint64_t request_id = RequestIdOf(message);
  std::uint32_t frag_index = 0, frag_total = 1;
  ParseFragmentHeader(message, &frag_index, &frag_total);

  // A new request starts at expected = 1 and every total is at least 1.
  // Fragments agree on the total; keep the max defensively.
  PendingRequest& pending = requests_[request_id];
  pending.expected = std::max(pending.expected, frag_total);
  const std::string final_reply = message.Header(phdr::kFinalReplyTo);
  if (!final_reply.empty()) pending.final_reply_to = final_reply;
  ++pending.received;
  pending.last_activity = ctx.Now();

  if (message.type == net::msg::kAllocation) {
    auto allocation = ParseAllocationMessage(message);
    if (allocation.ok()) {
      if (!pending.has_best) {
        pending.has_best = true;
        pending.best = std::move(allocation.value());
      } else if (allocation->machine_load < pending.best.machine_load) {
        ReleaseAllocation(pending.best, ctx);
        pending.best = std::move(allocation.value());
      } else {
        ReleaseAllocation(*allocation, ctx);
      }
    }
  }

  FinishIfComplete(request_id, pending, ctx);
}

void Reintegrator::FinishIfComplete(std::uint64_t request_id,
                                    PendingRequest& pending,
                                    net::NodeContext& ctx) {
  if (pending.received < pending.expected) return;
  if (pending.has_best) {
    ++stats_.completed;
    if (!pending.final_reply_to.empty()) {
      net::Message out = MakeAllocationMessage(pending.best);
      out.SetHeader(phdr::kFragment, "0/1");
      ctx.Send(pending.final_reply_to, std::move(out));
    }
  } else {
    ++stats_.failed;
    if (!pending.final_reply_to.empty()) {
      ctx.Send(pending.final_reply_to,
               MakeFailureMessage(request_id,
                                  "all fragments failed to allocate"));
    }
  }
  requests_.erase(request_id);
}

void Reintegrator::ReleaseAllocation(const Allocation& allocation,
                                     net::NodeContext& ctx) {
  ++stats_.released_duplicates;
  if (allocation.pool_address.empty()) return;
  ctx.Send(allocation.pool_address,
           MakeReleaseMessage(allocation.machine_id, allocation.session_key));
}

}  // namespace actyp::pipeline
