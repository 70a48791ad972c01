#include "baseline/static_partition.hpp"

#include "pipeline/protocol.hpp"
#include "query/parser.hpp"

namespace actyp::baseline {

StaticPartitionFrontend::StaticPartitionFrontend(StaticPartitionConfig config)
    : config_(std::move(config)) {}

void StaticPartitionFrontend::OnMessage(const net::Envelope& envelope,
                                        net::NodeContext& ctx) {
  const net::Message& message = envelope.message;
  if (message.type != net::msg::kQuery) return;
  ++stats_.queries;
  ctx.Consume(config_.costs.qm_translate);

  auto parsed = query::Parser::ParseBasic(message.body);
  net::Address target;
  if (parsed.ok()) {
    target = config_.fallback;
    if (auto cond = parsed->GetRsrc(config_.route_key)) {
      auto it = config_.routes.find(cond->value.text());
      if (it != config_.routes.end()) target = it->second;
    }
  }

  if (target.empty()) {
    ++stats_.failures;
    const net::Address reply_to = message.Header(net::hdr::kReplyTo);
    if (!reply_to.empty()) {
      ctx.Send(reply_to,
               pipeline::MakeFailureMessage(pipeline::RequestIdOf(message),
                                            "static frontend: no route"));
    }
    return;
  }

  net::Message out{net::msg::kQuery};
  out.headers = message.headers;
  pipeline::StampSchedHints(*parsed, &out);
  out.body = message.body;
  ctx.Send(target, std::move(out));
  ++stats_.routed;
}

}  // namespace actyp::baseline
