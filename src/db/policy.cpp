#include "db/policy.hpp"

#include "common/strings.hpp"

namespace actyp::db {
namespace {

Result<UsagePolicy::Rule::Cond> ParseCond(std::string_view text) {
  // attr op value — find the operator (two-char ops first).
  for (const std::string_view op_text :
       {">=", "<=", "==", "!=", "=~", ">", "<"}) {
    const std::size_t pos = text.find(op_text);
    if (pos == std::string_view::npos) continue;
    UsagePolicy::Rule::Cond cond;
    cond.attr = ToLower(Trim(text.substr(0, pos)));
    cond.op = *query::ParseCmpOp(op_text);
    cond.value = query::Value(Trim(text.substr(pos + op_text.size())));
    if (cond.attr.empty() || cond.value.text().empty()) {
      return InvalidArgument("bad policy condition '" + std::string(text) +
                             "'");
    }
    return cond;
  }
  return InvalidArgument("no operator in policy condition '" +
                         std::string(text) + "'");
}

}  // namespace

Result<UsagePolicy> UsagePolicy::Parse(std::string_view text) {
  UsagePolicy policy;
  for (const auto& rule_text : SplitSkipEmpty(text, ';')) {
    const std::string_view trimmed = TrimView(rule_text);
    if (trimmed.empty()) continue;

    Rule rule;
    std::string_view rest = trimmed;
    if (StartsWith(rest, "allow")) {
      rule.allow = true;
      rest = TrimView(rest.substr(5));
    } else if (StartsWith(rest, "deny")) {
      rule.allow = false;
      rest = TrimView(rest.substr(4));
    } else {
      return InvalidArgument("policy rule must start with allow/deny: '" +
                             std::string(trimmed) + "'");
    }

    // Optional group glob up to 'if'.
    const std::size_t if_pos = rest.find("if ");
    std::string_view group_part =
        if_pos == std::string_view::npos ? rest : rest.substr(0, if_pos);
    std::string_view cond_part =
        if_pos == std::string_view::npos ? std::string_view()
                                         : rest.substr(if_pos + 3);
    group_part = TrimView(group_part);
    if (!group_part.empty()) rule.group_glob = ToLower(Trim(group_part));

    for (const auto& cond_text : SplitSkipEmpty(cond_part, ',')) {
      if (TrimView(cond_text).empty()) continue;
      auto cond = ParseCond(TrimView(cond_text));
      if (!cond.ok()) return cond.status();
      rule.conditions.push_back(std::move(cond.value()));
    }
    policy.rules_.push_back(std::move(rule));
  }
  if (policy.rules_.empty()) return InvalidArgument("empty policy");
  return policy;
}

bool UsagePolicy::Evaluate(const MachineRecord& machine,
                           const std::string& group) const {
  const std::string lower_group = ToLower(group);
  for (const auto& rule : rules_) {
    if (!GlobMatch(rule.group_glob, lower_group)) continue;
    bool holds = true;
    for (const auto& cond : rule.conditions) {
      const auto attr = machine.Attribute(cond.attr);
      if (!attr || !query::EvalCmp(query::Value(*attr), cond.op, cond.value)) {
        holds = false;
        break;
      }
    }
    if (holds) return rule.allow;
  }
  return true;  // no rule matched: allow
}

Status PolicyRegistry::Register(const std::string& name,
                                std::string_view policy_text) {
  auto policy = UsagePolicy::Parse(policy_text);
  if (!policy.ok()) return policy.status();
  std::lock_guard<std::mutex> lock(mu_);
  policies_[name] = std::move(policy.value());
  return Status::Ok();
}

bool PolicyRegistry::Allows(const MachineRecord& machine,
                            const std::string& group) const {
  if (machine.usage_policy.empty()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = policies_.find(machine.usage_policy.text());
  if (it == policies_.end()) return true;
  return it->second.Evaluate(machine, group);
}

}  // namespace actyp::db
