#include "pipeline/pool_manager.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "net/message.hpp"
#include "pipeline/protocol.hpp"

namespace actyp::pipeline {

PoolManager::PoolManager(PoolManagerConfig config,
                         directory::DirectoryApi* directory)
    : config_(std::move(config)), directory_(directory) {}

void PoolManager::OnStart(net::NodeContext& ctx) {
  directory::PoolManagerEntry entry;
  entry.name = config_.name;
  entry.address = ctx.self();
  const Status status = directory_->RegisterPoolManager(entry);
  if (!status.ok()) {
    ACTYP_WARN << "pool manager '" << config_.name
               << "': registration failed: " << status.ToString();
  }
}

void PoolManager::OnMessage(const net::Envelope& envelope,
                            net::NodeContext& ctx) {
  if (envelope.message.type == net::msg::kQuery) {
    HandleQuery(envelope, ctx);
    if (config_.profiler != nullptr) {
      config_.profiler->Record(profile::Stage::kPmDelegate,
                               RequestIdOf(envelope.message),
                               envelope.sent_at, ctx.Now() + ctx.Consumed());
    }
  } else {
    ACTYP_DEBUG << "pool manager '" << config_.name
                << "': ignoring message type '" << envelope.message.type
                << "'";
  }
}

void PoolManager::HandleQuery(const net::Envelope& envelope,
                              net::NodeContext& ctx) {
  ++stats_.queries;
  const net::Message& message = envelope.message;
  ctx.Consume(config_.costs.pm_map);

  // The entry stage stamps the pool name and the delegation state as
  // sched hints (§6), so this stage never parses the body.
  if (!message.HasHeader(phdr::kSchedHints)) {
    Fail(envelope, ctx, std::string(kNoSchedHints));
    return;
  }
  const std::string pool_name = message.Header(net::hdr::kPoolName);

  const auto instances = directory_->Lookup(pool_name);
  if (!instances.empty()) {
    const bool split = instances.front().segment;
    if (split && instances.size() > 1) {
      // Split pool: concurrent searches over every segment, aggregated
      // by the reintegrator (Fig. 7). Fragment coordinates ride on the
      // header; the body is forwarded verbatim.
      if (config_.reintegrator.empty()) {
        Fail(envelope, ctx, "split pool but no reintegrator configured");
        return;
      }
      ++stats_.fanouts;
      const auto total = static_cast<std::uint32_t>(instances.size());
      for (std::uint32_t i = 0; i < total; ++i) {
        net::Message out{net::msg::kQuery};
        out.headers = message.headers;
        out.SetHeader(net::hdr::kReplyTo, config_.reintegrator);
        out.SetHeader(phdr::kFragment,
                      std::to_string(i) + "/" + std::to_string(total));
        out.body = message.body;
        ctx.Send(instances[i].address, std::move(out));
      }
      return;
    }
    // Replicated (or single) pool: random instance selection.
    const auto& chosen =
        instances[ctx.rng().NextBounded(instances.size())];
    net::Message out{net::msg::kQuery};
    out.headers = message.headers;
    out.body = message.body;
    ctx.Send(chosen.address, std::move(out));
    ++stats_.forwarded;
    return;
  }

  // No instance exists: try to create one through a proxy server.
  if (config_.allow_create && !config_.proxies.empty()) {
    const net::Address& proxy =
        config_.proxies[next_proxy_++ % config_.proxies.size()];
    net::Message create{net::msg::kCreatePool};
    create.headers = message.headers;
    create.SetHeader(net::hdr::kPoolName, pool_name);
    create.body = message.body;
    ctx.Send(proxy, std::move(create));
    ++stats_.created;
    return;
  }

  // Cannot create: delegate to a peer pool manager, carrying the visited
  // list and TTL with the query (§5.2.2) — on headers, so each hop
  // forwards the body untouched.
  if (config_.allow_delegate) {
    Delegate(envelope, ctx);
    return;
  }
  Fail(envelope, ctx, "no pool for '" + pool_name + "' and creation disabled");
}

void PoolManager::Delegate(const net::Envelope& envelope,
                           net::NodeContext& ctx) {
  ctx.Consume(config_.costs.pm_delegate);
  const net::Message& message = envelope.message;

  int ttl = static_cast<int>(
      ParseInt(message.Header(phdr::kTtl)).value_or(kDefaultTtl));
  std::vector<std::string> visited =
      SplitSkipEmpty(message.Header(phdr::kVisited), ',');
  if (std::find(visited.begin(), visited.end(), config_.name) ==
      visited.end()) {
    visited.push_back(config_.name);
  }
  --ttl;
  if (ttl <= 0) {
    Fail(envelope, ctx, "query TTL expired at '" + config_.name + "'");
    return;
  }
  const auto peers = directory_->PoolManagersExcluding(visited);
  if (peers.empty()) {
    Fail(envelope, ctx,
         "no unvisited pool manager can satisfy the query (visited " +
             std::to_string(visited.size()) + ")");
    return;
  }
  const auto& peer = peers[ctx.rng().NextBounded(peers.size())];
  net::Message out{net::msg::kQuery};
  out.headers = message.headers;
  out.SetHeader(phdr::kTtl, std::to_string(ttl));
  out.SetHeader(phdr::kVisited, Join(visited, ","));
  out.body = message.body;
  ctx.Send(peer.address, std::move(out));
  ++stats_.delegated;
}

void PoolManager::Fail(const net::Envelope& envelope, net::NodeContext& ctx,
                       const std::string& reason) {
  ++stats_.failures;
  const net::Address reply_to = envelope.message.Header(net::hdr::kReplyTo);
  if (reply_to.empty()) return;
  const std::uint64_t request_id = RequestIdOf(envelope.message);
  std::uint32_t frag_index = 0, frag_total = 1;
  ParseFragmentHeader(envelope.message, &frag_index, &frag_total);
  net::Message failure =
      MakeFailureMessage(request_id, reason, frag_index, frag_total);
  if (envelope.message.HasHeader(phdr::kFinalReplyTo)) {
    failure.SetHeader(phdr::kFinalReplyTo,
                      envelope.message.Header(phdr::kFinalReplyTo));
  }
  ctx.Send(reply_to, std::move(failure));
}

}  // namespace actyp::pipeline
