#include "baseline/matchmaker.hpp"

#include "pipeline/protocol.hpp"
#include "query/parser.hpp"

namespace actyp::baseline {

Matchmaker::Matchmaker(MatchmakerConfig config, db::ResourceDatabase* database)
    : config_(std::move(config)), database_(database) {}

void Matchmaker::OnStart(net::NodeContext& ctx) {
  ctx.ScheduleSelf(config_.cycle_period, net::Message{net::msg::kTick});
}

void Matchmaker::OnMessage(const net::Envelope& envelope,
                           net::NodeContext& ctx) {
  const net::Message& message = envelope.message;
  if (message.type == net::msg::kQuery) {
    ++stats_.queries;
    queue_.push_back(envelope);
    return;
  }
  if (message.type == net::msg::kRelease) {
    const std::string session = message.Header(net::hdr::kSessionKey);
    auto it = session_machine_.find(session);
    if (it != session_machine_.end()) {
      auto job = jobs_.find(it->second);
      if (job != jobs_.end() && job->second > 0) --job->second;
      session_machine_.erase(it);
      ++stats_.releases;
    }
    return;
  }
  if (message.type == net::msg::kTick) {
    RunCycle(ctx);
    ctx.ScheduleSelf(config_.cycle_period, net::Message{net::msg::kTick});
  }
}

void Matchmaker::RunCycle(net::NodeContext& ctx) {
  ++stats_.cycles;
  while (!queue_.empty()) {
    const net::Envelope request = std::move(queue_.front());
    queue_.pop_front();

    const net::Message& message = request.message;
    const net::Address reply_to = message.Header(net::hdr::kReplyTo);
    const std::uint64_t request_id = pipeline::RequestIdOf(message);

    auto parsed = query::Parser::ParseBasic(message.body);
    if (!parsed.ok()) {
      ++stats_.unmatched;
      if (!reply_to.empty()) {
        ctx.Send(reply_to, pipeline::MakeFailureMessage(
                               request_id, parsed.status().ToString()));
      }
      continue;
    }
    const query::Query& q = parsed.value();

    std::size_t scanned = 0;
    bool found = false;
    db::MachineRecord best;
    double best_load = 0.0;
    database_->VisitAll([&](const db::MachineRecord& rec) {
      ++scanned;
      if (!rec.IsUsable()) return;
      if (!q.Matches([&rec](const std::string& name) {
            return rec.Attribute(name);
          })) {
        return;
      }
      auto it = jobs_.find(rec.id);
      const double load = rec.dyn.load + (it == jobs_.end() ? 0 : it->second);
      if (!found || load < best_load) {
        found = true;
        best = rec;
        best_load = load;
      }
    });
    ctx.Consume(config_.costs.pool_per_machine *
                static_cast<SimDuration>(scanned));

    if (!found) {
      ++stats_.unmatched;
      if (!reply_to.empty()) {
        ctx.Send(reply_to, pipeline::MakeFailureMessage(
                               request_id, "matchmaker: no match"));
      }
      continue;
    }

    jobs_[best.id] += 1;
    pipeline::Allocation allocation;
    allocation.machine_name = best.name;
    allocation.machine_id = best.id;
    allocation.port = best.execution_unit_port;
    allocation.session_key =
        config_.name + "-" + std::to_string(++session_seq_);
    allocation.pool_name = config_.name;
    allocation.pool_address = ctx.self();
    allocation.machine_load = best_load + 1.0;
    allocation.request_id = request_id;
    session_machine_[allocation.session_key] = best.id;
    ++stats_.matched;
    if (!reply_to.empty()) {
      ctx.Send(reply_to, pipeline::MakeAllocationMessage(allocation));
    }
  }
}

}  // namespace actyp::baseline
