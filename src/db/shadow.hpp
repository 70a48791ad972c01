// Shadow accounts (Fig. 3 field 18): per-machine pools of logical user
// accounts not tied to any individual user. ActYP allocates one per run
// and the network desktop relinquishes it when the run completes (§2).
//
// A pool is lazy: it keeps its first uid, its size and records only for
// the accounts handed out so far, which are always its lowest uids. An
// idle machine's pool holds no account record, and a released account
// keeps its record, so handing it out again reuses the session buffer.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/symbols.hpp"

namespace actyp::db {

struct ShadowAccount {
  std::uint32_t uid = 0;
  std::string current_session;  // empty = free
};

// One pool of shadow accounts (typically one per machine or per cluster):
// uids first_uid .. first_uid + count - 1.
class ShadowAccountPool {
 public:
  ShadowAccountPool() = default;
  ShadowAccountPool(std::uint32_t first_uid, std::size_t count);

  // Claims the lowest free uid for `session_key`.
  Result<std::uint32_t> Acquire(const std::string& session_key);
  Status Release(std::uint32_t uid, const std::string& session_key);

  [[nodiscard]] std::size_t total() const;
  [[nodiscard]] std::size_t free_count() const;

 private:
  mutable std::mutex mu_;
  std::uint32_t first_uid_ = 0;
  std::uint32_t count_ = 0;
  // Accounts first_uid_ .. first_uid_ + used_.size() - 1; the rest of
  // the range is free and has never been handed out.
  std::vector<ShadowAccount> used_;
};

// Registry resolving Fig. 3's "shadow account pool pointer" names. A
// pool's address is stable for the registry's lifetime, so holders may
// resolve a name once and keep the pointer.
class ShadowAccountRegistry {
 public:
  // Creates (or returns the existing) pool under `name`.
  ShadowAccountPool& GetOrCreate(Symbol name, std::uint32_t first_uid,
                                 std::size_t count);
  [[nodiscard]] ShadowAccountPool* Find(Symbol name);

 private:
  std::mutex mu_;
  // Looked up only, never walked: its order follows symbol numbers.
  std::unordered_map<Symbol, ShadowAccountPool, Symbol::Hash> pools_;
};

}  // namespace actyp::db
