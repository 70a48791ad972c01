// QueryManager (§5.2.1): the pipeline's entry stage. It translates
// queries from foreign resource-description languages into the native
// key-value format, decomposes composite ("or") queries into basic
// fragments, selects pool managers — by parameter value, else at
// random — stamps each fragment's sched hints, and forwards it.
// Composite fragments and QoS fan-out duplicates are aggregated by a
// Reintegrator stage.
//
// Clients draw their texts from a small set (one per cluster), so the
// host work that depends only on the native text (parse, decompose,
// rule matching, rendering the sched hints) is done once per distinct
// text and kept in a bounded plan memo. The simulated cost of that work
// is charged on every query all the same (qm_translate and
// qm_per_fragment), so the memo changes no simulated output.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/node.hpp"
#include "pipeline/cost_model.hpp"
#include "profile/stage_profiler.hpp"
#include "query/query.hpp"

namespace actyp::pipeline {

// Translates a foreign-language query body into native text.
using Translator = std::function<Result<std::string>(const std::string&)>;

// Routes queries whose rsrc `param` matches `value_glob` to a dedicated
// pool-manager set (the paper's example: sun machines to one set, hp to
// another).
struct PmRule {
  std::string param;
  std::string value_glob;
  std::vector<net::Address> pool_managers;
};

struct QueryManagerConfig {
  std::string name;
  std::vector<PmRule> rules;
  std::vector<net::Address> default_pool_managers;
  // Aggregation stage for composite fragments and QoS duplicates.
  net::Address reintegrator;
  // QoS: forward every basic query to this many distinct pool managers
  // and let the reintegrator keep the best response (§6). 1 = off.
  std::uint32_t qos_fanout = 1;
  CostModel costs;
  // Stage-span sink (not owned; must outlive the node, including any
  // fault-restart copies of this config). Null disables profiling.
  profile::StageProfiler* profiler = nullptr;
};

struct QueryManagerStats {
  std::uint64_t queries = 0;
  std::uint64_t fragments = 0;
  std::uint64_t composites = 0;
  std::uint64_t translation_failures = 0;
  std::uint64_t parse_failures = 0;
  std::uint64_t routing_failures = 0;
  // Native texts parsed into a plan (memo misses; parse failures are
  // not memoized and count under parse_failures).
  std::uint64_t plans = 0;
};

class QueryManager final : public net::Node {
 public:
  explicit QueryManager(QueryManagerConfig config);

  // Registers a translator for the given language tag (message header
  // "language"); native queries need none.
  void RegisterTranslator(const std::string& language, Translator translator);

  void OnMessage(const net::Envelope& envelope, net::NodeContext& ctx) override;

  [[nodiscard]] const QueryManagerStats& stats() const { return stats_; }

 private:
  // One basic alternative of a native text, ready to forward: the body
  // (the text itself for a basic query, the alternative's ToText() for a
  // composite), the pool managers it may go to, and its sched-hint
  // headers as StampSchedHints renders them.
  struct PlannedAlternative {
    std::string body;
    std::vector<net::Address> candidates;
    net::Message::HeaderList hints;
  };
  using Plan = std::vector<PlannedAlternative>;
  // Chaos and fuzz inputs bring unbounded distinct texts: a full memo is
  // cleared, not grown.
  static constexpr std::size_t kMaxPlans = 4096;

  void HandleQuery(const net::Envelope& envelope, net::NodeContext& ctx);
  [[nodiscard]] Plan MakePlan(const std::string& native,
                              const query::CompositeQuery& composite) const;
  [[nodiscard]] std::vector<net::Address> CandidatePms(
      const query::Query& q) const;
  const net::Address& PickPm(const std::vector<net::Address>& candidates,
                             net::NodeContext& ctx);
  void Fail(const net::Envelope& envelope, net::NodeContext& ctx,
            const std::string& reason);

  QueryManagerConfig config_;
  std::unordered_map<std::string, Translator> translators_;
  // Keyed by the native text, after translation.
  std::unordered_map<std::string, Plan> plans_;
  QueryManagerStats stats_;
};

}  // namespace actyp::pipeline
