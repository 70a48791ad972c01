#include "query/query.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace actyp::query {

namespace {

// Sorted-vector upsert/lookup helpers. Keys are stored lower-cased;
// callers almost always pass already-lower keys, so the common path
// avoids the allocating ToLower.
template <typename List, typename V>
void UpsertTerm(List& list, std::string_view name, V value) {
  const std::string lowered = IsLower(name) ? std::string(name)
                                            : ToLower(name);
  auto it = std::lower_bound(
      list.begin(), list.end(), lowered,
      [](const auto& entry, const std::string& key) {
        return entry.first < key;
      });
  if (it != list.end() && it->first == lowered) {
    it->second = std::move(value);
    return;
  }
  list.emplace(it, lowered, std::move(value));
}

template <typename List>
auto FindTerm(const List& list, std::string_view name) {
  // Lookup keys are short literals; compare case-insensitively without
  // materializing a lowered copy.
  auto lower = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  auto less = [&lower](std::string_view a, std::string_view b) {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [&lower](char x, char y) { return lower(x) < lower(y); });
  };
  auto it = std::lower_bound(list.begin(), list.end(), name,
                             [&less](const auto& entry, std::string_view key) {
                               return less(entry.first, key);
                             });
  if (it != list.end() && !less(name, it->first)) return it;
  return list.end();
}

}  // namespace

void Query::SetRsrc(std::string_view name, Condition cond) {
  UpsertTerm(rsrc_, name, std::move(cond));
}

void Query::SetRsrc(std::string_view name, CmpOp op,
                    const std::string& value) {
  SetRsrc(name, Condition{op, Value(value)});
}

std::optional<Condition> Query::GetRsrc(std::string_view name) const {
  auto it = FindTerm(rsrc_, name);
  if (it == rsrc_.end()) return std::nullopt;
  return it->second;
}

void Query::SetAppl(std::string_view name, std::string value) {
  UpsertTerm(appl_, name, std::move(value));
}

void Query::SetUser(std::string_view name, std::string value) {
  UpsertTerm(user_, name, std::move(value));
}

std::string Query::GetAppl(std::string_view name) const {
  auto it = FindTerm(appl_, name);
  return it == appl_.end() ? std::string() : it->second;
}

std::string Query::GetUser(std::string_view name) const {
  auto it = FindTerm(user_, name);
  return it == user_.end() ? std::string() : it->second;
}

std::string Query::Signature() const {
  // rsrc_ is a std::map, so iteration is already sorted by key — exactly
  // the "sorted rsrc keys" of §5.2.2.
  std::vector<std::string> keys;
  std::vector<std::string> ops;
  keys.reserve(rsrc_.size());
  ops.reserve(rsrc_.size());
  for (const auto& [name, cond] : rsrc_) {
    keys.push_back(name);
    ops.emplace_back(CmpOpSpelling(cond.op));
  }
  return Join(keys, ":") + "," + Join(ops, ":");
}

std::string Query::Identifier() const {
  std::vector<std::string> values;
  values.reserve(rsrc_.size());
  for (const auto& [name, cond] : rsrc_) values.push_back(cond.value.text());
  return Join(values, ":");
}

std::string Query::PoolName() const { return Signature() + "/" + Identifier(); }

bool Query::Matches(const AttributeFn& attribute) const {
  for (const auto& [name, cond] : rsrc_) {
    const auto attr = attribute(name);
    if (!attr.has_value()) return false;
    if (!EvalCmp(Value(*attr), cond.op, cond.value)) return false;
  }
  return true;
}

std::string Query::ToText() const {
  std::string out;
  auto emit = [&out](const std::string& key, const std::string& value) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  };
  for (const auto& [name, cond] : rsrc_) {
    emit(family_ + ".rsrc." + name, cond.ToString());
  }
  for (const auto& [name, value] : appl_) emit(family_ + ".appl." + name, value);
  for (const auto& [name, value] : user_) emit(family_ + ".user." + name, value);
  return out;
}

bool operator==(const Query& a, const Query& b) {
  if (a.family_ != b.family_ || a.appl_ != b.appl_ || a.user_ != b.user_) {
    return false;
  }
  if (a.rsrc_.size() != b.rsrc_.size()) return false;
  auto it_a = a.rsrc_.begin();
  auto it_b = b.rsrc_.begin();
  for (; it_a != a.rsrc_.end(); ++it_a, ++it_b) {
    if (it_a->first != it_b->first) return false;
    if (it_a->second.op != it_b->second.op) return false;
    if (!(it_a->second.value == it_b->second.value)) return false;
  }
  return true;
}

}  // namespace actyp::query
