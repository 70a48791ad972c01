#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace actyp {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> SplitSkipEmpty(std::string_view text, char sep) {
  std::vector<std::string> out;
  for (auto& piece : Split(text, sep)) {
    if (!piece.empty()) out.push_back(std::move(piece));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view TrimView(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string Trim(std::string_view text) { return std::string(TrimView(text)); }

bool IsLower(std::string_view text) {
  for (const char c : text) {
    if (std::isupper(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::optional<std::int64_t> ParseInt(std::string_view text) {
  text = TrimView(text);
  if (text.empty()) return std::nullopt;
  std::int64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view text) {
  text = TrimView(text);
  if (text.empty()) return std::nullopt;
  // std::from_chars<double> is available in libstdc++ 11+, but go through
  // strtod for locale-independent portability with a bounded copy.
  std::string buf(text);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

bool GlobMatch(std::string_view pattern, std::string_view text) {
  // Iterative two-pointer match with star backtracking.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, match = 0;
  auto lower = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || lower(pattern[p]) == lower(text[t]))) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::optional<std::string> JsonString(const std::string& line,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::string out;
  for (std::size_t i = at + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      const char next = line[++i];
      switch (next) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        default: out += next;
      }
      continue;
    }
    if (c == '"') return out;
    out += c;
  }
  return std::nullopt;
}

std::optional<double> JsonNumber(const std::string& line,
                                 const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return value;
}

}  // namespace actyp
