// The basic (non-composite) query processed by the resource management
// pipeline, plus the signature/identifier mapping that names resource
// pools (§5.1, §5.2.2).
//
// Keys form a hierarchical namespace: family.type.name, e.g.
//   punch.rsrc.arch   — resource requirement (constraint on machines)
//   punch.appl.expectedcpuuse — predicted application behaviour
//   punch.user.login  — user-specific data
// Missing rsrc keys default to "don't care"; missing appl/user keys
// default to "undefined".
//
// A Query holds only the terms. The pipeline state that travels with a
// query (§6: TTL, visited pool managers, fragment coordinates) rides on
// its message headers; see pipeline/protocol.hpp.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "query/value.hpp"

namespace actyp::query {

// One constraint on a resource attribute.
struct Condition {
  CmpOp op = CmpOp::kEq;
  Value value;

  [[nodiscard]] std::string ToString() const {
    return std::string(CmpOpSpelling(op)) + value.text();
  }
};

// Attribute lookup used when matching a query against a machine: returns
// the machine's value for a rsrc key name ("arch", "memory", ...) or
// nullopt when the machine does not define it.
using AttributeFn =
    std::function<std::optional<std::string>(const std::string& name)>;

class Query {
 public:
  // Terms live in flat vectors kept sorted by (lower-cased) key: queries
  // carry a handful of terms, and the per-stage parse/copy cost of
  // node-based maps dominated the pipeline's hot path.
  using RsrcList = std::vector<std::pair<std::string, Condition>>;
  using TermList = std::vector<std::pair<std::string, std::string>>;

  Query() = default;
  explicit Query(std::string family) : family_(std::move(family)) {}

  [[nodiscard]] const std::string& family() const { return family_; }
  void set_family(std::string family) { family_ = std::move(family); }

  // --- resource requirement terms (keyed by final name component) ---
  void SetRsrc(std::string_view name, Condition cond);
  void SetRsrc(std::string_view name, CmpOp op, const std::string& value);
  [[nodiscard]] const RsrcList& rsrc() const { return rsrc_; }
  [[nodiscard]] std::optional<Condition> GetRsrc(std::string_view name) const;

  // --- application / user terms (plain values) ---
  void SetAppl(std::string_view name, std::string value);
  void SetUser(std::string_view name, std::string value);
  [[nodiscard]] const TermList& appl() const { return appl_; }
  [[nodiscard]] const TermList& user() const { return user_; }
  // "" when absent.
  [[nodiscard]] std::string GetAppl(std::string_view name) const;
  [[nodiscard]] std::string GetUser(std::string_view name) const;

  // --- pool naming (§5.2.2) ---
  // Signature: colon-separated sorted rsrc key names, a comma, then the
  // corresponding operator spellings. Example from the paper:
  //   arch:domain:license:memory,==:==:==:>=
  [[nodiscard]] std::string Signature() const;
  // Identifier: colon-separated values of the sorted rsrc keys:
  //   sun:purdue:tsuprem4:10
  [[nodiscard]] std::string Identifier() const;
  // Pool name = signature '/' identifier.
  [[nodiscard]] std::string PoolName() const;

  // --- matching ---
  // True when every rsrc constraint is satisfied by the machine's
  // attributes. A machine lacking a constrained attribute fails the
  // constraint (the query asked for something the machine does not
  // advertise); unconstrained attributes are "don't care".
  [[nodiscard]] bool Matches(const AttributeFn& attribute) const;

  // --- wire format ---
  // Serializes to the native text protocol (one key = value per line).
  [[nodiscard]] std::string ToText() const;

  friend bool operator==(const Query& a, const Query& b);

 private:
  std::string family_ = "punch";
  RsrcList rsrc_;  // sorted by key
  TermList appl_;  // sorted by key
  TermList user_;  // sorted by key
};

// A composite query: alternatives produced by "or" clauses. Decomposed
// into basic queries at the query-manager stage (§5.2.1).
class CompositeQuery {
 public:
  CompositeQuery() = default;
  explicit CompositeQuery(std::vector<Query> alternatives)
      : alternatives_(std::move(alternatives)) {}

  [[nodiscard]] const std::vector<Query>& alternatives() const {
    return alternatives_;
  }
  [[nodiscard]] std::vector<Query>& alternatives() { return alternatives_; }
  [[nodiscard]] bool IsBasic() const { return alternatives_.size() == 1; }
  [[nodiscard]] std::size_t size() const { return alternatives_.size(); }

 private:
  std::vector<Query> alternatives_;
};

}  // namespace actyp::query
