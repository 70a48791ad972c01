// Small string helpers shared by the query language, config parser, and
// wire format.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace actyp {

std::vector<std::string> Split(std::string_view text, char sep);
// Like Split but drops empty pieces.
std::vector<std::string> SplitSkipEmpty(std::string_view text, char sep);
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Allocation-free split: calls fn(piece) for every sep-separated piece
// (empty pieces included) — the hot-path alternative to Split.
template <typename Fn>
void ForEachPiece(std::string_view text, char sep, Fn&& fn) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      fn(text.substr(start));
      return;
    }
    fn(text.substr(start, pos - start));
    start = pos + 1;
  }
}

// True when the text contains no uppercase letters — lets hot paths
// skip the allocating ToLower for already-canonical keys.
bool IsLower(std::string_view text);

std::string_view TrimView(std::string_view text);
std::string Trim(std::string_view text);
std::string ToLower(std::string_view text);
// ASCII case-insensitive equality, without ToLower's copies.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

std::optional<std::int64_t> ParseInt(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);

// Case-insensitive glob with '*' and '?' — used for wildcard values in
// admin-defined parameters.
bool GlobMatch(std::string_view pattern, std::string_view text);

// JSON string escaping for the small character set our names and notes
// use; control characters become \u escapes.
std::string JsonEscape(std::string_view text);

// Line-local JSON field readers for the flat one-object-per-line files
// the writers above produce (no nested duplicate keys), so a direct key
// scan suffices. JsonString returns the first "key":"..." value with
// \n, \t and \r unescaped and any other escaped character kept as
// itself; JsonNumber the first "key":<number>. Both return nullopt when
// the key is absent or its value malformed.
std::optional<std::string> JsonString(const std::string& line,
                                      const std::string& key);
std::optional<double> JsonNumber(const std::string& line,
                                 const std::string& key);

}  // namespace actyp
