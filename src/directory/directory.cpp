#include "directory/directory.hpp"

#include <algorithm>

namespace actyp::directory {

std::optional<PoolInstance> DirectoryApi::PickRandom(
    const std::string& pool_name, Rng& rng) const {
  auto instances = Lookup(pool_name);
  if (instances.empty()) return std::nullopt;
  return instances[rng.NextBounded(instances.size())];
}

std::vector<PoolManagerEntry> DirectoryApi::PoolManagersExcluding(
    const std::vector<std::string>& exclude) const {
  auto all = PoolManagers();
  std::vector<PoolManagerEntry> out;
  for (auto& entry : all) {
    if (std::find(exclude.begin(), exclude.end(), entry.name) ==
        exclude.end()) {
      out.push_back(std::move(entry));
    }
  }
  return out;
}

Status DirectoryService::RegisterPool(const PoolInstance& instance) {
  if (instance.pool_name.empty()) {
    return InvalidArgument("pool instance must carry a pool name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto& instances = pools_[instance.pool_name];
  if (instances.count(instance.instance)) {
    return AlreadyExists("pool '" + instance.pool_name + "' instance " +
                         std::to_string(instance.instance));
  }
  instances[instance.instance] = instance;
  return Status::Ok();
}

Status DirectoryService::UnregisterPool(const std::string& pool_name,
                                        std::uint32_t instance) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pools_.find(pool_name);
  if (it == pools_.end() || !it->second.count(instance)) {
    return NotFound("pool '" + pool_name + "' instance " +
                    std::to_string(instance));
  }
  it->second.erase(instance);
  if (it->second.empty()) pools_.erase(it);
  return Status::Ok();
}

std::vector<PoolInstance> DirectoryService::Lookup(
    const std::string& pool_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PoolInstance> out;
  auto it = pools_.find(pool_name);
  if (it == pools_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [num, inst] : it->second) out.push_back(inst);
  return out;
}

std::vector<std::string> DirectoryService::PoolNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(pools_.size());
  for (const auto& [name, instances] : pools_) names.push_back(name);
  return names;
}

std::size_t DirectoryService::pool_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [name, instances] : pools_) n += instances.size();
  return n;
}

Status DirectoryService::RegisterPoolManager(const PoolManagerEntry& entry) {
  if (entry.name.empty()) {
    return InvalidArgument("pool manager must have a name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = pool_managers_.try_emplace(entry.name, entry);
  if (!inserted && it->second != entry) {
    return AlreadyExists("pool manager '" + entry.name + "'");
  }
  return Status::Ok();
}

Status DirectoryService::UnregisterPoolManager(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!pool_managers_.erase(name)) {
    return NotFound("pool manager '" + name + "'");
  }
  return Status::Ok();
}

std::vector<PoolManagerEntry> DirectoryService::PoolManagers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PoolManagerEntry> out;
  out.reserve(pool_managers_.size());
  for (const auto& [name, entry] : pool_managers_) out.push_back(entry);
  return out;
}

}  // namespace actyp::directory
