#include "workload/client.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "pipeline/protocol.hpp"

namespace actyp::workload {

void ResponseCollector::RecordResponse(SimDuration response_time) {
  std::lock_guard<std::mutex> lock(mu_);
  response_.Add(ToSeconds(response_time));
  quantiles_.Add(ToSeconds(response_time));
}

void ResponseCollector::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  ++failures_;
}

void ResponseCollector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  response_.Reset();
  quantiles_ = QuantileSampler();
  failures_ = 0;
}

void ResponseCollector::MergeFrom(const ResponseCollector& other) {
  std::scoped_lock lock(mu_, other.mu_);
  response_.Merge(other.response_);
  quantiles_.Merge(other.quantiles_);
  failures_ += other.failures_;
}

RunningStats ResponseCollector::response_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return response_;
}

double ResponseCollector::QuantileSeconds(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quantiles_.Quantile(q);
}

std::uint64_t ResponseCollector::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

std::uint64_t ResponseCollector::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return response_.count();
}

ClientNode::ClientNode(ClientConfig config) : config_(std::move(config)) {}

void ClientNode::OnStart(net::NodeContext& ctx) {
  // Stagger client start-up slightly so closed-loop clients do not send
  // their first query in lock-step.
  net::Message kick{net::msg::kTick};
  kick.SetHeader("action", "next-query");
  ctx.ScheduleSelf(static_cast<SimDuration>(ctx.rng().NextBounded(1000)),
                   std::move(kick));
}

void ClientNode::OnMessage(const net::Envelope& envelope,
                           net::NodeContext& ctx) {
  const net::Message& message = envelope.message;

  if (message.type == net::msg::kTick) {
    const std::string action = message.Header("action");
    if (action == "next-query") {
      SendNextQuery(ctx);
    } else if (action == "request-timeout") {
      const std::uint64_t request_id = pipeline::RequestIdOf(message);
      if (request_id == inflight_request_ && inflight_request_ != 0) {
        timeout_timer_ = 0;
        if (attempt_ < config_.retry_max) {
          // The request (or its reply) was lost: resend after a jittered
          // exponential backoff instead of abandoning the interaction.
          ++attempt_;
          const int shift =
              static_cast<int>(std::min<std::size_t>(attempt_ - 1, 16));
          const SimDuration base =
              std::max<SimDuration>(1, config_.retry_backoff) << shift;
          const SimDuration delay =
              base / 2 +
              static_cast<SimDuration>(ctx.rng().NextDouble() *
                                       static_cast<double>(base / 2 + 1));
          net::Message retry{net::msg::kTick};
          retry.SetHeader("action", "retry-send");
          retry.SetHeader(net::hdr::kRequestId, std::to_string(request_id));
          ctx.ScheduleSelf(std::max<SimDuration>(delay, 1), std::move(retry));
        } else {
          // Retries exhausted (or disabled): give up and move on.
          ++stats_.failures;
          if (config_.collector != nullptr) config_.collector->RecordFailure();
          inflight_request_ = 0;
          CompleteInteraction(ctx);
        }
      }
    } else if (action == "retry-send") {
      const std::uint64_t request_id = pipeline::RequestIdOf(message);
      // A reply that raced the backoff already closed the request; only
      // resend when it is still the in-flight one.
      if (request_id == inflight_request_ && inflight_request_ != 0) {
        ResendInflight(ctx);
      }
    } else if (action == "job-done") {
      const std::uint64_t request_id = pipeline::RequestIdOf(message);
      auto it = held_.find(request_id);
      if (it != held_.end()) {
        ctx.Send(it->second.pool_address,
                 pipeline::MakeReleaseMessage(it->second.machine_id,
                                              it->second.session_key));
        held_.erase(it);
      }
      CompleteInteraction(ctx);
    }
    return;
  }

  if (message.type == net::msg::kAllocation) {
    auto allocation = pipeline::ParseAllocationMessage(message);
    if (!allocation.ok()) {
      ACTYP_WARN << "client " << config_.client_id << ": bad allocation: "
                 << allocation.status().ToString();
      return;
    }
    if (allocation->request_id != inflight_request_) {
      // Stale result (e.g. the late answer to a timed-out attempt):
      // release it.
      ctx.Send(allocation->pool_address,
               pipeline::MakeReleaseMessage(allocation->machine_id,
                                            allocation->session_key));
      return;
    }
    ++stats_.allocations;
    if (config_.collector != nullptr) {
      config_.collector->RecordResponse(ctx.Now() - inflight_sent_at_);
    }
    if (config_.profiler != nullptr) {
      // The last hop back, and the client-observed end-to-end span
      // (first send through retries to the accepted allocation) — the
      // same interval the response collector measures.
      config_.profiler->Record(profile::Stage::kReply,
                               allocation->request_id, envelope.sent_at,
                               ctx.Now());
      config_.profiler->Record(profile::Stage::kClientIssue,
                               allocation->request_id, inflight_sent_at_,
                               ctx.Now());
    }
    inflight_request_ = 0;
    if (timeout_timer_ != 0) {
      ctx.CancelSelf(timeout_timer_);
      timeout_timer_ = 0;
    }

    const SimDuration job = config_.job_duration != nullptr
                                ? config_.job_duration(ctx.rng())
                                : 0;
    if (job > 0) {
      held_[allocation->request_id] = *allocation;
      net::Message done{net::msg::kTick};
      done.SetHeader("action", "job-done");
      done.SetHeader(net::hdr::kRequestId,
                     std::to_string(allocation->request_id));
      ctx.ScheduleSelf(job, std::move(done));
    } else {
      ctx.Send(allocation->pool_address,
               pipeline::MakeReleaseMessage(allocation->machine_id,
                                            allocation->session_key));
      CompleteInteraction(ctx);
    }
    return;
  }

  if (message.type == net::msg::kFailure) {
    const std::uint64_t request_id = pipeline::RequestIdOf(message);
    if (request_id != inflight_request_) return;  // stale fragment failure
    ++stats_.failures;
    if (config_.collector != nullptr) config_.collector->RecordFailure();
    inflight_request_ = 0;
    if (timeout_timer_ != 0) {
      ctx.CancelSelf(timeout_timer_);
      timeout_timer_ = 0;
    }
    CompleteInteraction(ctx);
    return;
  }
}

void ClientNode::SendNextQuery(net::NodeContext& ctx) {
  if (config_.max_requests > 0 && stats_.sent >= config_.max_requests) return;
  if (config_.horizon > 0 && ctx.Now() >= config_.horizon) return;

  const std::uint64_t request_id =
      (static_cast<std::uint64_t>(config_.client_id) << 32) | next_seq_++;
  inflight_request_ = request_id;
  inflight_sent_at_ = ctx.Now();
  attempt_ = 0;
  ++stats_.sent;

  inflight_body_ = config_.make_query(ctx.rng());
  PostInflightQuery(ctx);
}

// Sends the in-flight request (headers rebuilt from config, body from
// inflight_body_) to the current attempt's entry point and arms the
// give-up timer. Shared by the first attempt and every retry, so a
// header added to queries can never diverge between the two paths.
void ClientNode::PostInflightQuery(net::NodeContext& ctx) {
  net::Message query{net::msg::kQuery};
  query.headers.reserve(2);
  query.SetHeader(net::hdr::kReplyTo, ctx.self());
  query.SetHeader(net::hdr::kRequestId, std::to_string(inflight_request_));
  // Only the give-up timer can resend the text, so without one the
  // message takes it instead of a copy.
  if (config_.request_timeout > 0) {
    query.body = inflight_body_;
  } else {
    query.body = std::move(inflight_body_);
  }
  ctx.Send(EntryForAttempt(), std::move(query));

  if (config_.request_timeout > 0) {
    net::Message timeout{net::msg::kTick};
    timeout.SetHeader("action", "request-timeout");
    timeout.SetHeader(net::hdr::kRequestId,
                      std::to_string(inflight_request_));
    timeout_timer_ =
        ctx.ScheduleSelf(config_.request_timeout, std::move(timeout));
  }
}

const net::Address& ClientNode::EntryForAttempt() const {
  if (attempt_ == 0 || config_.fallback_entries.empty()) {
    return config_.entry;
  }
  const std::size_t pick =
      (attempt_ - 1) % (config_.fallback_entries.size() + 1);
  return pick == config_.fallback_entries.size()
             ? config_.entry
             : config_.fallback_entries[pick];
}

void ClientNode::ResendInflight(net::NodeContext& ctx) {
  // Counted here — when the retry actually goes on the wire — not when
  // the backoff was scheduled: a reply racing the backoff cancels the
  // resend, and the metric must not count retries that never happened.
  ++stats_.retries;
  PostInflightQuery(ctx);
}

void ClientNode::CompleteInteraction(net::NodeContext& ctx) {
  net::Message next{net::msg::kTick};
  next.SetHeader("action", "next-query");
  ctx.ScheduleSelf(config_.think_time, std::move(next));
}

}  // namespace actyp::workload
