#include "common/config.hpp"

#include "common/strings.hpp"

namespace actyp {

Result<Config> Config::Parse(std::string_view text) {
  Config config;
  std::string section;
  std::size_t line_no = 0;
  for (const auto& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = TrimView(raw_line);
    const std::size_t comment = line.find('#');
    if (comment != std::string_view::npos) {
      line = TrimView(line.substr(0, comment));
    }
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        return InvalidArgument("config line " + std::to_string(line_no) +
                               ": unterminated section header");
      }
      section = Trim(line.substr(1, line.size() - 2));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgument("config line " + std::to_string(line_no) +
                             ": expected key=value");
    }
    std::string key = Trim(line.substr(0, eq));
    if (key.empty()) {
      return InvalidArgument("config line " + std::to_string(line_no) +
                             ": empty key");
    }
    if (!section.empty()) key = section + "." + key;
    config.entries_[key] = Trim(line.substr(eq + 1));
  }
  return config;
}

void Config::Set(const std::string& key, std::string value) {
  entries_[key] = std::move(value);
}

std::optional<std::string> Config::Get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::GetOr(const std::string& key, std::string fallback) const {
  auto v = Get(key);
  return v ? *v : std::move(fallback);
}

std::int64_t Config::GetInt(const std::string& key,
                            std::int64_t fallback) const {
  auto v = Get(key);
  if (!v) return fallback;
  auto parsed = ParseInt(*v);
  return parsed ? *parsed : fallback;
}

double Config::GetDouble(const std::string& key, double fallback) const {
  auto v = Get(key);
  if (!v) return fallback;
  auto parsed = ParseDouble(*v);
  return parsed ? *parsed : fallback;
}

bool Config::GetBool(const std::string& key, bool fallback) const {
  auto v = Get(key);
  if (!v) return fallback;
  const std::string lower = ToLower(*v);
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") {
    return false;
  }
  return fallback;
}

std::vector<std::pair<std::string, std::string>> Config::SectionEntries(
    const std::string& section) const {
  std::vector<std::pair<std::string, std::string>> out;
  const std::string prefix = section + ".";
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first.substr(prefix.size()), it->second);
  }
  return out;
}

std::string Config::Serialize() const {
  std::string out;
  for (const auto& [key, value] : entries_) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  }
  return out;
}

}  // namespace actyp
