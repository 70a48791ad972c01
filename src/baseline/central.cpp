#include "baseline/central.hpp"

#include "pipeline/protocol.hpp"
#include "query/parser.hpp"

namespace actyp::baseline {

CentralScheduler::CentralScheduler(CentralSchedulerConfig config,
                                   db::ResourceDatabase* database)
    : config_(std::move(config)), database_(database) {}

void CentralScheduler::OnMessage(const net::Envelope& envelope,
                                 net::NodeContext& ctx) {
  if (envelope.message.type == net::msg::kQuery) {
    HandleQuery(envelope, ctx);
  } else if (envelope.message.type == net::msg::kRelease) {
    HandleRelease(envelope, ctx);
  }
}

void CentralScheduler::HandleQuery(const net::Envelope& envelope,
                                   net::NodeContext& ctx) {
  ++stats_.queries;
  const net::Message& message = envelope.message;
  const net::Address reply_to = message.Header(net::hdr::kReplyTo);
  const std::uint64_t request_id = pipeline::RequestIdOf(message);

  auto parsed = query::Parser::ParseBasic(message.body);
  ctx.Consume(config_.costs.qm_translate);
  if (!parsed.ok()) {
    ++stats_.failures;
    if (!reply_to.empty()) {
      ctx.Send(reply_to,
               pipeline::MakeFailureMessage(request_id,
                                            parsed.status().ToString()));
    }
    return;
  }
  const query::Query& q = parsed.value();

  // Full scan of the white pages, read in place in ascending-id order —
  // the centralized scheduler pays the whole database on every query,
  // and is a single serialization point.
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
    const double load =
        rec.dyn.load + (it == jobs_.end() ? 0 : it->second);
    const double ceiling =
        rec.max_allowed_load + static_cast<double>(rec.num_cpus) - 1.0;
    if (!config_.allow_oversubscribe && load >= ceiling) return;
    if (!found || load < best_load) {
      found = true;
      best = rec;
      best_load = load;
    }
  });
  ctx.Consume(config_.costs.pool_per_machine *
              static_cast<SimDuration>(scanned));

  if (!found) {
    ++stats_.failures;
    if (!reply_to.empty()) {
      ctx.Send(reply_to, pipeline::MakeFailureMessage(
                             request_id, "central: no machine matches"));
    }
    return;
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
  ++stats_.allocations;
  if (!reply_to.empty()) {
    ctx.Send(reply_to, pipeline::MakeAllocationMessage(allocation));
  }
}

void CentralScheduler::HandleRelease(const net::Envelope& envelope,
                                     net::NodeContext& ctx) {
  ctx.Consume(config_.costs.pool_fixed / 2);
  const std::string session =
      envelope.message.Header(net::hdr::kSessionKey);
  auto it = session_machine_.find(session);
  if (it == session_machine_.end()) return;
  auto job = jobs_.find(it->second);
  if (job != jobs_.end() && job->second > 0) --job->second;
  session_machine_.erase(it);
  ++stats_.releases;
}

}  // namespace actyp::baseline
