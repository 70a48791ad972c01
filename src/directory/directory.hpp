// Local directory service (§5.2.2-5.2.3): pool managers track resource
// pools through it, and pool objects register themselves (pool name +
// self-generated instance number) once initialized. It also lists peer
// pool managers for query delegation. One directory exists per
// administrative domain; replicated stages within a domain share it.
//
// `DirectoryApi` is the abstract surface the pipeline consumes:
// `DirectoryService` is the single authoritative implementation, and
// `replica::ReplicaHandle` (src/replica/) routes the same calls to the
// nearest reachable replica of a replicated directory group. The
// directory only lists instances; choosing one is the caller's (a pool
// manager draws one of Lookup's instances with its own RNG).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace actyp::directory {

// Where a registered pool instance can be reached. `address` is a
// transport address (simnet node name, in-proc queue name, or host:port
// for TCP).
struct PoolInstance {
  std::string pool_name;   // signature/identifier (§5.2.2)
  std::uint32_t instance;  // self-generated instance number
  std::string address;
  std::size_t machine_count = 0;  // advisory, for splitting decisions
  // True when this instance holds a *partition* of the pool's machines
  // (a split pool, Fig. 7) rather than a full replica (Fig. 8). Queries
  // must fan out to every segment and aggregate the results.
  bool segment = false;
};

struct PoolManagerEntry {
  std::string name;
  std::string address;
  std::string domain;

  bool operator==(const PoolManagerEntry&) const = default;
};

// The directory operations the pipeline stages depend on.
class DirectoryApi {
 public:
  virtual ~DirectoryApi() = default;

  // --- resource pools ---
  virtual Status RegisterPool(const PoolInstance& instance) = 0;
  virtual Status UnregisterPool(const std::string& pool_name,
                                std::uint32_t instance) = 0;

  // All live instances of a pool name (empty when none exist), ordered
  // by instance number.
  [[nodiscard]] virtual std::vector<PoolInstance> Lookup(
      const std::string& pool_name) const = 0;

  [[nodiscard]] virtual std::vector<std::string> PoolNames() const = 0;
  [[nodiscard]] virtual std::size_t pool_count() const = 0;

  // --- pool managers (delegation peers) ---
  virtual Status RegisterPoolManager(const PoolManagerEntry& entry) = 0;
  virtual Status UnregisterPoolManager(const std::string& name) = 0;
  [[nodiscard]] virtual std::vector<PoolManagerEntry> PoolManagers() const = 0;

  // Peers excluding the given names (used with the query's visited list).
  [[nodiscard]] std::vector<PoolManagerEntry> PoolManagersExcluding(
      const std::vector<std::string>& exclude) const;
};

class DirectoryService : public DirectoryApi {
 public:
  // --- resource pools ---
  Status RegisterPool(const PoolInstance& instance) override;
  Status UnregisterPool(const std::string& pool_name,
                        std::uint32_t instance) override;

  [[nodiscard]] std::vector<PoolInstance> Lookup(
      const std::string& pool_name) const override;

  [[nodiscard]] std::vector<std::string> PoolNames() const override;
  [[nodiscard]] std::size_t pool_count() const override;

  // --- pool managers (delegation peers) ---
  // Re-registering an identical entry succeeds without change, so a
  // pool manager restarted after a crash (which leaves its entry)
  // registers cleanly; a different entry under a taken name fails.
  Status RegisterPoolManager(const PoolManagerEntry& entry) override;
  Status UnregisterPoolManager(const std::string& name) override;
  [[nodiscard]] std::vector<PoolManagerEntry> PoolManagers() const override;

 private:
  mutable std::mutex mu_;
  // pool name -> instance number -> entry
  std::map<std::string, std::map<std::uint32_t, PoolInstance>> pools_;
  std::map<std::string, PoolManagerEntry> pool_managers_;
};

}  // namespace actyp::directory
