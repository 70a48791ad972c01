#include "query/parser.hpp"

#include <algorithm>
#include <cctype>

#include "common/strings.hpp"

namespace actyp::query {
namespace {

// One parsed line before composite expansion.
struct RawTerm {
  KeyParts key;
  std::vector<Condition> alternatives;  // >1 => "or" clause
  std::string raw_value;                // for appl/user/meta terms
};

Result<std::vector<RawTerm>> Tokenize(std::string_view text) {
  std::vector<RawTerm> terms;
  std::size_t line_no = 0;
  Status error = Status::Ok();
  ForEachPiece(text, '\n', [&](std::string_view raw_line) {
    if (!error.ok()) return;
    ++line_no;
    std::string_view line = TrimView(raw_line);
    if (line.empty() || line.front() == '#') return;
    const std::size_t eq = line.find('=');
    // Careful: the first '=' may belong to an operator only when it is
    // the separator "key = value"; keys never contain '='.
    if (eq == std::string_view::npos) {
      error = InvalidArgument("query line " + std::to_string(line_no) +
                              ": expected 'key = value'");
      return;
    }
    const std::string_view key = TrimView(line.substr(0, eq));
    // "key == value" writes the separator twice; absorb the second '='
    // only when it is adjacent to the first (a detached "= ==value" is
    // an operator-prefixed value, not a doubled separator).
    std::size_t value_start = eq + 1;
    if (value_start < line.size() && line[value_start] == '=') ++value_start;
    const std::string_view value = TrimView(line.substr(value_start));
    auto parts = SplitKey(key);
    if (!parts.ok()) {
      error = parts.status();
      return;
    }

    RawTerm term;
    term.key = std::move(parts.value());
    term.raw_value = std::string(value);
    ForEachPiece(value, '|', [&](std::string_view alt) {
      if (!error.ok()) return;
      const auto trimmed = TrimView(alt);
      if (trimmed.empty()) {
        error = InvalidArgument("query line " + std::to_string(line_no) +
                                ": empty alternative in or-clause");
        return;
      }
      term.alternatives.push_back(ParseCondition(trimmed));
    });
    if (!error.ok()) return;
    if (term.alternatives.empty()) {
      error = InvalidArgument("query line " + std::to_string(line_no) +
                              ": missing value");
      return;
    }
    terms.push_back(std::move(term));
  });
  if (!error.ok()) return error;
  return terms;
}

}  // namespace

Result<KeyParts> SplitKey(std::string_view key) {
  // family.type.name[.more]: empty segments are skipped; the name keeps
  // any further dots ("punch.rsrc.a.b" -> name "a.b").
  std::string_view family;
  std::string_view type;
  std::size_t name_begin = std::string_view::npos;
  std::size_t seen = 0;
  std::size_t offset = 0;
  for (;;) {
    const std::size_t dot = key.find('.', offset);
    const std::string_view piece =
        dot == std::string_view::npos ? key.substr(offset)
                                      : key.substr(offset, dot - offset);
    if (!piece.empty()) {
      if (seen == 0) {
        family = piece;
      } else {
        type = piece;
        name_begin = dot == std::string_view::npos ? key.size() : dot + 1;
      }
      if (++seen == 2) break;
    }
    if (dot == std::string_view::npos) break;
    offset = dot + 1;
  }
  KeyParts parts;
  if (seen == 2 && name_begin < key.size()) {
    // Lower-case the name while collapsing empty segments.
    std::string name;
    name.reserve(key.size() - name_begin);
    ForEachPiece(key.substr(name_begin), '.', [&name](std::string_view piece) {
      if (piece.empty()) return;
      if (!name.empty()) name += '.';
      for (const char c : piece) {
        name += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
    });
    if (!name.empty()) {
      parts.family = ToLower(family);
      parts.type = ToLower(type);
      parts.name = std::move(name);
      return parts;
    }
  }
  return InvalidArgument("key '" + std::string(key) +
                         "' must have the form family.type.name");
}

Condition ParseCondition(std::string_view text) {
  text = TrimView(text);
  for (const std::string_view op_text : {">=", "<=", "==", "!=", "=~"}) {
    if (StartsWith(text, op_text)) {
      return Condition{*ParseCmpOp(op_text),
                       Value(Trim(text.substr(op_text.size())))};
    }
  }
  for (const std::string_view op_text : {">", "<"}) {
    if (StartsWith(text, op_text)) {
      return Condition{*ParseCmpOp(op_text),
                       Value(Trim(text.substr(op_text.size())))};
    }
  }
  // Bare wildcard values get glob semantics so admins can write
  // "ostype = solaris*".
  const bool has_wildcard = text.find('*') != std::string_view::npos ||
                            text.find('?') != std::string_view::npos;
  return Condition{has_wildcard ? CmpOp::kGlob : CmpOp::kEq,
                   Value(std::string(text))};
}

Result<CompositeQuery> Parser::Parse(std::string_view text) {
  auto terms = Tokenize(text);
  if (!terms.ok()) return terms.status();
  if (terms->empty()) return InvalidArgument("empty query");

  // Determine family from the first non-meta term.
  std::string family;
  for (const auto& term : *terms) {
    if (term.key.family != "actyp") {
      family = term.key.family;
      break;
    }
  }
  if (family.empty()) family = "punch";

  // Start with one prototype query and expand the cartesian product of
  // rsrc or-clauses.
  std::vector<Query> expansion;
  expansion.emplace_back(family);

  for (const auto& term : *terms) {
    // Pipeline state rides on message headers; meta terms are ignored.
    if (term.key.family == "actyp" && term.key.type == "meta") continue;

    if (term.key.family != family) {
      return InvalidArgument("mixed families in one query: '" + family +
                             "' and '" + term.key.family + "'");
    }

    if (term.key.type == "rsrc") {
      if (term.alternatives.size() == 1) {
        for (auto& q : expansion) q.SetRsrc(term.key.name, term.alternatives[0]);
        continue;
      }
      if (expansion.size() * term.alternatives.size() > kMaxAlternatives) {
        return InvalidArgument(
            "composite query expands to more than " +
            std::to_string(kMaxAlternatives) + " basic queries");
      }
      std::vector<Query> next;
      next.reserve(expansion.size() * term.alternatives.size());
      for (const auto& base : expansion) {
        for (const auto& alt : term.alternatives) {
          Query q = base;
          q.SetRsrc(term.key.name, alt);
          next.push_back(std::move(q));
        }
      }
      expansion = std::move(next);
    } else if (term.key.type == "appl") {
      for (auto& q : expansion) q.SetAppl(term.key.name, term.raw_value);
    } else if (term.key.type == "user") {
      for (auto& q : expansion) q.SetUser(term.key.name, term.raw_value);
    } else {
      return InvalidArgument("unknown key type '" + term.key.type +
                             "' (expected rsrc, appl, or user)");
    }
  }

  return CompositeQuery(std::move(expansion));
}

Result<Query> Parser::ParseBasic(std::string_view text) {
  auto composite = Parse(text);
  if (!composite.ok()) return composite.status();
  if (!composite->IsBasic()) {
    return InvalidArgument("expected a basic query but found " +
                           std::to_string(composite->size()) +
                           " alternatives");
  }
  return composite->alternatives()[0];
}

}  // namespace actyp::query
