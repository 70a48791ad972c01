#include "pipeline/query_manager.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "pipeline/protocol.hpp"
#include "query/parser.hpp"

namespace actyp::pipeline {

QueryManager::QueryManager(QueryManagerConfig config)
    : config_(std::move(config)) {
  config_.qos_fanout = std::max<std::uint32_t>(1, config_.qos_fanout);
}

void QueryManager::RegisterTranslator(const std::string& language,
                                      Translator translator) {
  translators_[ToLower(language)] = std::move(translator);
}

void QueryManager::OnMessage(const net::Envelope& envelope,
                             net::NodeContext& ctx) {
  if (envelope.message.type == net::msg::kQuery) {
    HandleQuery(envelope, ctx);
    if (config_.profiler != nullptr) {
      // Span covers transport + queue wait (sent_at .. Now) plus the
      // service time this handler consumed.
      config_.profiler->Record(profile::Stage::kQmAdmit,
                               RequestIdOf(envelope.message),
                               envelope.sent_at, ctx.Now() + ctx.Consumed());
    }
  } else {
    ACTYP_DEBUG << "query manager '" << config_.name
                << "': ignoring message type '" << envelope.message.type
                << "'";
  }
}

void QueryManager::HandleQuery(const net::Envelope& envelope,
                               net::NodeContext& ctx) {
  ++stats_.queries;
  const net::Message& message = envelope.message;
  ctx.Consume(config_.costs.qm_translate);

  // 1. Translation into the native language (interoperability hook).
  const std::string* native = &message.body;
  std::string translated_text;
  const std::string language = ToLower(message.Header("language"));
  if (!language.empty() && language != "native") {
    auto it = translators_.find(language);
    if (it == translators_.end()) {
      ++stats_.translation_failures;
      Fail(envelope, ctx, "no translator for language '" + language + "'");
      return;
    }
    auto translated = it->second(*native);
    if (!translated.ok()) {
      ++stats_.translation_failures;
      Fail(envelope, ctx, translated.status().ToString());
      return;
    }
    translated_text = std::move(translated.value());
    native = &translated_text;
  }

  // 2. Parse, decompose and route: once per distinct native text.
  auto planned = plans_.find(*native);
  if (planned == plans_.end()) {
    auto composite = query::Parser::Parse(*native);
    if (!composite.ok()) {
      ++stats_.parse_failures;
      Fail(envelope, ctx, composite.status().ToString());
      return;
    }
    if (plans_.size() >= kMaxPlans) plans_.clear();
    planned = plans_.emplace(*native, MakePlan(*native, *composite)).first;
    ++stats_.plans;
  }
  const Plan& plan = planned->second;

  const std::uint64_t request_id = RequestIdOf(message);
  const net::Address client = message.Header(net::hdr::kReplyTo);

  // Expand QoS duplicates: each basic alternative is sent to `fanout`
  // distinct pool managers; the reintegrator keeps the best answer.
  const std::size_t fragment_count = plan.size() * config_.qos_fanout;
  ctx.Consume(config_.costs.qm_per_fragment *
              static_cast<SimDuration>(fragment_count));

  const bool aggregated = fragment_count > 1;
  if (aggregated && config_.reintegrator.empty()) {
    ++stats_.routing_failures;
    Fail(envelope, ctx,
         "composite/fan-out query but no reintegrator configured");
    return;
  }
  if (aggregated) ++stats_.composites;

  const auto total = static_cast<std::uint32_t>(fragment_count);
  const net::Address& reply_to = aggregated ? config_.reintegrator : client;
  const bool fan_out = config_.qos_fanout > 1;
  std::vector<net::Address> used_pms;  // QoS duplicates only
  std::vector<net::Address> unused;
  std::uint32_t index = 0;
  for (const PlannedAlternative& alternative : plan) {
    // Fragment coordinates and the sched hints ride on headers (§6 —
    // the parsed state travels with the message).
    for (std::uint32_t dup = 0; dup < config_.qos_fanout; ++dup, ++index) {
      if (alternative.candidates.empty()) {
        ++stats_.routing_failures;
        if (!reply_to.empty()) {
          net::Message failure = MakeFailureMessage(
              request_id, "no pool manager configured for this query",
              index, aggregated ? total : 1);
          if (aggregated) failure.SetHeader(phdr::kFinalReplyTo, client);
          ctx.Send(reply_to, std::move(failure));
        }
        continue;
      }
      // Spread QoS duplicates over distinct pool managers when possible.
      const std::vector<net::Address>* candidates = &alternative.candidates;
      if (fan_out && candidates->size() > 1) {
        unused.clear();
        for (const auto& c : *candidates) {
          if (std::find(used_pms.begin(), used_pms.end(), c) ==
              used_pms.end()) {
            unused.push_back(c);
          }
        }
        if (!unused.empty()) candidates = &unused;
      }
      const net::Address& pm = PickPm(*candidates, ctx);
      if (fan_out) used_pms.push_back(pm);

      net::Message out{net::msg::kQuery};
      out.headers.reserve(message.headers.size() + 3 +
                          alternative.hints.size());
      out.headers.assign(message.headers.begin(), message.headers.end());
      out.SetHeader(net::hdr::kReplyTo, reply_to);
      out.SetHeader(phdr::kFinalReplyTo, client);
      if (aggregated) {
        out.SetHeader(phdr::kFragment,
                      std::to_string(index) + "/" + std::to_string(total));
      }
      for (const auto& [key, value] : alternative.hints) {
        out.SetHeader(key, value);
      }
      out.body = alternative.body;
      ctx.Send(pm, std::move(out));
      ++stats_.fragments;
    }
  }
}

QueryManager::Plan QueryManager::MakePlan(
    const std::string& native, const query::CompositeQuery& composite) const {
  Plan plan;
  plan.reserve(composite.size());
  for (const query::Query& alternative : composite.alternatives()) {
    // StampSchedHints stays the only renderer of the hints: it stamps a
    // scratch message whose headers are replayed onto every fragment.
    net::Message hints;
    StampSchedHints(alternative, &hints);
    plan.push_back(PlannedAlternative{
        composite.IsBasic() ? native : alternative.ToText(),
        CandidatePms(alternative), std::move(hints.headers)});
  }
  return plan;
}

std::vector<net::Address> QueryManager::CandidatePms(
    const query::Query& q) const {
  for (const auto& rule : config_.rules) {
    const auto cond = q.GetRsrc(rule.param);
    if (!cond) continue;
    if (GlobMatch(rule.value_glob, cond->value.text())) {
      return rule.pool_managers;
    }
  }
  return config_.default_pool_managers;
}

const net::Address& QueryManager::PickPm(
    const std::vector<net::Address>& candidates, net::NodeContext& ctx) {
  if (candidates.size() == 1) return candidates.front();
  return candidates[ctx.rng().NextBounded(candidates.size())];
}

void QueryManager::Fail(const net::Envelope& envelope, net::NodeContext& ctx,
                        const std::string& reason) {
  const net::Address reply_to = envelope.message.Header(net::hdr::kReplyTo);
  if (reply_to.empty()) return;
  ctx.Send(reply_to,
           MakeFailureMessage(RequestIdOf(envelope.message), reason));
}

}  // namespace actyp::pipeline
