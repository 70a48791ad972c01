#include "db/shadow.hpp"

namespace actyp::db {

ShadowAccountPool::ShadowAccountPool(std::uint32_t first_uid,
                                     std::size_t count)
    : first_uid_(first_uid), count_(static_cast<std::uint32_t>(count)) {}

Result<std::uint32_t> ShadowAccountPool::Acquire(
    const std::string& session_key) {
  if (session_key.empty()) {
    return InvalidArgument("shadow account needs a session key");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& account : used_) {
    if (account.current_session.empty()) {
      account.current_session = session_key;
      return account.uid;
    }
  }
  if (used_.size() >= count_) return Exhausted("no free shadow accounts");
  const auto uid = first_uid_ + static_cast<std::uint32_t>(used_.size());
  used_.push_back(ShadowAccount{uid, session_key});
  return uid;
}

Status ShadowAccountPool::Release(std::uint32_t uid,
                                  const std::string& session_key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (uid < first_uid_ || uid - first_uid_ >= count_) {
    return NotFound("uid " + std::to_string(uid));
  }
  const std::size_t index = uid - first_uid_;
  // An account never handed out is free: held by the empty session.
  const std::string_view holder =
      index < used_.size() ? used_[index].current_session : std::string_view();
  if (holder != session_key) {
    return PermissionDenied("uid " + std::to_string(uid) +
                            " is not held by this session");
  }
  if (index < used_.size()) used_[index].current_session.clear();
  return Status::Ok();
}

std::size_t ShadowAccountPool::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::size_t ShadowAccountPool::free_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t held = 0;
  for (const auto& account : used_) held += !account.current_session.empty();
  return count_ - held;
}

ShadowAccountPool& ShadowAccountRegistry::GetOrCreate(Symbol name,
                                                      std::uint32_t first_uid,
                                                      std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = pools_.try_emplace(name, first_uid, count);
  return it->second;
}

ShadowAccountPool* ShadowAccountRegistry::Find(Symbol name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pools_.find(name);
  return it == pools_.end() ? nullptr : &it->second;
}

}  // namespace actyp::db
