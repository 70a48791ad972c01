#include "pipeline/proxy.hpp"

#include "common/logging.hpp"
#include "pipeline/protocol.hpp"
#include "query/parser.hpp"

namespace actyp::pipeline {

ProxyServer::ProxyServer(ProxyConfig config, net::Network* network,
                         db::ResourceDatabase* database,
                         directory::DirectoryApi* directory,
                         db::ShadowAccountRegistry* shadows,
                         db::PolicyRegistry* policies)
    : config_(std::move(config)),
      network_(network),
      database_(database),
      directory_(directory),
      shadows_(shadows),
      policies_(policies) {}

void ProxyServer::OnMessage(const net::Envelope& envelope,
                            net::NodeContext& ctx) {
  if (envelope.message.type == net::msg::kCreatePool) {
    HandleCreatePool(envelope, ctx);
  } else {
    ACTYP_DEBUG << "proxy on '" << config_.host
                << "': ignoring message type '" << envelope.message.type
                << "'";
  }
}

void ProxyServer::HandleCreatePool(const net::Envelope& envelope,
                                   net::NodeContext& ctx) {
  const net::Message& message = envelope.message;

  auto parsed = query::Parser::ParseBasic(message.body);
  if (!parsed.ok()) {
    ++stats_.create_failures;
    const net::Address reply_to = message.Header(net::hdr::kReplyTo);
    if (!reply_to.empty()) {
      ctx.Send(reply_to, MakeFailureMessage(0, parsed.status().ToString()));
    }
    return;
  }
  const query::Query& q = parsed.value();

  // The pool's aggregation criteria are exactly the query's rsrc terms —
  // this is the "active" part of the yellow pages: categories defined on
  // the fly from the observed job mix.
  query::Query criteria(q.family());
  for (const auto& [name, cond] : q.rsrc()) criteria.SetRsrc(name, cond);

  ResourcePoolConfig pool_config;
  pool_config.pool_name = message.Header(net::hdr::kPoolName);
  pool_config.instance = next_pool_;
  pool_config.criteria = criteria;
  pool_config.policy = config_.pool_policy;
  pool_config.resort_period = config_.pool_resort_period;
  pool_config.costs = config_.costs;
  pool_config.profiler = config_.profiler;
  pool_config.recorder = config_.recorder;

  // Fork/exec plus the white-pages walk, charged to the proxy.
  ctx.Consume(config_.costs.pool_create_fixed +
              config_.costs.pool_create_per_machine *
                  static_cast<SimDuration>(database_->size()));

  const net::Address pool_address =
      "pool." + config_.host + "." + std::to_string(next_pool_++);
  auto pool = std::make_shared<ResourcePool>(pool_config, database_,
                                             directory_, shadows_, policies_);
  net::NodePlacement placement;
  placement.host = config_.host;
  const Status added = network_->AddNode(pool_address, pool, placement);
  if (!added.ok()) {
    ++stats_.create_failures;
    ACTYP_WARN << "proxy: failed to create pool '" << pool_config.pool_name
               << "': " << added.ToString();
    const net::Address reply_to = message.Header(net::hdr::kReplyTo);
    if (!reply_to.empty()) {
      ctx.Send(reply_to, MakeFailureMessage(0, added.ToString()));
    }
    return;
  }
  ++stats_.pools_created;
  pools_.push_back(pool);

  // Forward the originating query to the new pool with its headers
  // intact; the pool answers the original requester directly.
  net::Message forward{net::msg::kQuery};
  forward.headers = message.headers;
  forward.RemoveHeader(net::hdr::kPoolName);
  forward.body = message.body;
  ctx.Send(pool_address, std::move(forward));
}

}  // namespace actyp::pipeline
