// Message model shared by every transport (§6: "queries propagate from
// one stage to the next via TCP or UDP"). A message is a type tag, a
// small header map, and an opaque body (usually query text).
//
// Wire format (text, HTTP-inspired, length-delimited body):
//
//   ACTYP/1 <type>\n
//   <key>: <value>\n
//   ...
//   content-length: <n>\n
//   \n
//   <body bytes>
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace actyp::net {

// Message types used by the resource management pipeline.
namespace msg {
inline constexpr std::string_view kQuery = "query";            // client -> QM, QM -> PM, PM -> pool
inline constexpr std::string_view kAllocation = "allocation";  // pool -> reintegrator/client
inline constexpr std::string_view kFailure = "failure";        // any stage -> reintegrator/client
inline constexpr std::string_view kRelease = "release";        // client -> pool (job done)
inline constexpr std::string_view kCreatePool = "create-pool"; // PM -> proxy server
inline constexpr std::string_view kTick = "tick";              // self-scheduled timer
}  // namespace msg

// Common header keys.
namespace hdr {
inline constexpr std::string_view kReplyTo = "reply-to";
inline constexpr std::string_view kRequestId = "request-id";
inline constexpr std::string_view kSessionKey = "session-key";
inline constexpr std::string_view kMachine = "machine";
inline constexpr std::string_view kMachineId = "machine-id";
inline constexpr std::string_view kPort = "port";
inline constexpr std::string_view kShadowUid = "shadow-uid";
inline constexpr std::string_view kPoolName = "pool-name";
inline constexpr std::string_view kError = "error";
}  // namespace hdr

struct Message {
  // Messages carry a handful of headers, so a flat vector searched
  // linearly beats a node-based map on every hot path (set, get, copy);
  // insertion order is preserved on the wire.
  using HeaderList = std::vector<std::pair<std::string, std::string>>;

  std::string type;
  HeaderList headers;
  std::string body;

  Message() = default;
  explicit Message(std::string_view t) : type(t) {}

  [[nodiscard]] const std::string* FindHeader(std::string_view key) const {
    for (const auto& [name, value] : headers) {
      if (name == key) return &value;
    }
    return nullptr;
  }
  [[nodiscard]] std::string Header(std::string_view key) const {
    const std::string* value = FindHeader(key);
    return value == nullptr ? std::string() : *value;
  }
  void SetHeader(std::string_view key, std::string value) {
    for (auto& [name, existing] : headers) {
      if (name == key) {
        existing = std::move(value);
        return;
      }
    }
    headers.emplace_back(std::string(key), std::move(value));
  }
  void RemoveHeader(std::string_view key) {
    for (auto it = headers.begin(); it != headers.end(); ++it) {
      if (it->first == key) {
        headers.erase(it);
        return;
      }
    }
  }
  [[nodiscard]] bool HasHeader(std::string_view key) const {
    return FindHeader(key) != nullptr;
  }

  [[nodiscard]] std::string Encode() const;
  static Result<Message> Decode(std::string_view wire);

  // Approximate size on the wire, used by transports for bandwidth cost.
  [[nodiscard]] std::size_t WireSize() const;
};

}  // namespace actyp::net
