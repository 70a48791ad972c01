// Usage policies (Fig. 3 field 19). The paper describes this field as a
// pointer to a PUNCH metaprogram letting administrators express rules
// like "public users may only use this machine when its load is below a
// threshold". We implement a small rule language with that power:
//
//   policy  := rule (';' rule)*
//   rule    := ('allow'|'deny') [group-glob] ['if' cond (',' cond)*]
//   cond    := attr op value          (op: == != >= <= > < =~)
//
// Rules are evaluated in order; the first whose group matches the
// requesting user's access group *and* whose conditions all hold decides
// the outcome. No matching rule => allow (policies restrict, they do not
// grant).
//
// Example:  "deny public if load >= 0.5; allow"
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "db/machine.hpp"
#include "query/value.hpp"

namespace actyp::db {

class UsagePolicy {
 public:
  struct Rule {
    bool allow = true;
    std::string group_glob = "*";
    struct Cond {
      std::string attr;
      query::CmpOp op;
      query::Value value;
    };
    std::vector<Cond> conditions;
  };

  static Result<UsagePolicy> Parse(std::string_view text);

  // True when `group` may use the machine in its current state.
  [[nodiscard]] bool Evaluate(const MachineRecord& machine,
                              const std::string& group) const;

  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }

 private:
  std::vector<Rule> rules_;
};

// Resolves field-19 policy names to parsed policies.
class PolicyRegistry {
 public:
  Status Register(const std::string& name, std::string_view policy_text);

  // Evaluates the machine's policy for `group`; machines without a
  // policy (or with an unregistered name) allow everyone — matching the
  // paper's "currently unimplemented" default-open behaviour.
  [[nodiscard]] bool Allows(const MachineRecord& machine,
                            const std::string& group) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, UsagePolicy, std::less<>> policies_;
};

}  // namespace actyp::db
