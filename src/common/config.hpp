// Key=value configuration with sections, used for experiment configs and
// the admin-defined machine parameter lists (Fig. 3 field 20).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace actyp {

class Config {
 public:
  Config() = default;

  // Parses lines of "key = value"; '#' starts a comment; "[section]"
  // prefixes following keys as "section.key".
  static Result<Config> Parse(std::string_view text);

  void Set(const std::string& key, std::string value);

  [[nodiscard]] std::optional<std::string> Get(const std::string& key) const;
  [[nodiscard]] std::string GetOr(const std::string& key,
                                  std::string fallback) const;
  [[nodiscard]] std::int64_t GetInt(const std::string& key,
                                    std::int64_t fallback) const;
  [[nodiscard]] double GetDouble(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] bool GetBool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  // Entries under "<section>." with the prefix stripped, in key order —
  // used for list-valued sections (e.g. the numbered fault-plan lines).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  SectionEntries(const std::string& section) const;

  [[nodiscard]] std::string Serialize() const;

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace actyp
