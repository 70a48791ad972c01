// Parser for the native key-value query language (§5.1) and the
// composite-query decomposition performed by query managers (§5.2.1).
//
// Input is line-oriented text:
//
//   punch.rsrc.arch = sun
//   punch.rsrc.memory = >=10
//   punch.rsrc.license = tsuprem4
//   punch.appl.expectedcpuuse = 1000
//   punch.user.login = kapadia
//
// A value may carry a leading comparison operator (default "==") and may
// contain '|'-separated alternatives ("or" clauses); such composite
// queries decompose into the cartesian product of their alternatives,
// each fragment tagged for reintegration at the end of the pipeline.
#pragma once

#include <string_view>

#include "common/status.hpp"
#include "query/query.hpp"

namespace actyp::query {

class Parser {
 public:
  // Maximum number of basic queries a single composite may expand to;
  // guards against cartesian blow-up from many OR'd keys.
  static constexpr std::size_t kMaxAlternatives = 64;

  // Parses text into a composite query (one alternative when no "or"
  // clause is present). "actyp.meta.*" terms are skipped: the query
  // manager stamps each alternative's pipeline state, fragment
  // coordinates included, on its message headers.
  static Result<CompositeQuery> Parse(std::string_view text);

  // Convenience: parses and requires the result to be basic.
  static Result<Query> ParseBasic(std::string_view text);
};

// Splits a full key "family.type.name" into its three components; the
// name part may itself contain dots (they join into `name`).
struct KeyParts {
  std::string family;
  std::string type;  // "rsrc", "appl", "user" (or "meta" for actyp.meta.*)
  std::string name;
};
Result<KeyParts> SplitKey(std::string_view key);

// Parses a single value expression "opvalue" (e.g. ">=10", "sun",
// "=~ultra*") into a Condition.
Condition ParseCondition(std::string_view text);

}  // namespace actyp::query
