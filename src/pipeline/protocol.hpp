// Message conventions for the resource management pipeline: how queries,
// allocations, failures, and releases are encoded as net::Message.
//
// Header conventions (see net/message.hpp for the shared keys):
//   query:       reply-to        final destination for the result
//                final-reply-to  original client, preserved across stages
//                request-id      client-assigned id for correlation
//                fragment (i/n)  composite / split-pool coordinates
//                sched hints     see StampSchedHints; delegation adds
//                                visited and rewrites ttl
//   allocation:  machine / machine-id / port / session-key / shadow-uid
//                pool-address    where to send the matching release
//                request-id, fragment (i/n), pool-name
//   failure:     error, request-id, fragment
//   release:     machine-id, session-key
//
// A query's pipeline state (§6) travels only on these headers; its body
// is the query text, which pool managers and pools never parse.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "net/message.hpp"
#include "net/node.hpp"
#include "query/query.hpp"

namespace actyp::pipeline {

// Additional header keys specific to the pipeline protocol.
namespace phdr {
inline constexpr std::string_view kFinalReplyTo = "final-reply-to";
inline constexpr std::string_view kFragment = "fragment";      // "i/n"
inline constexpr std::string_view kPoolAddress = "pool-address";
inline constexpr std::string_view kLoad = "machine-load";
// Scheduling hints (§6), stamped by StampSchedHints at the pipeline
// entry so that pool managers and pools route and select without
// parsing the query text. kSchedHints marks them present; a query
// without it fails at the first pool manager or pool it reaches.
inline constexpr std::string_view kSchedHints = "sched-hints";
inline constexpr std::string_view kAccessGroup = "access-group";
// Delegation state (§5.2.2): the remaining TTL and the comma-joined
// visited pool-manager list. Each delegation hop rewrites both and
// forwards the body untouched.
inline constexpr std::string_view kTtl = "ttl";
inline constexpr std::string_view kVisited = "visited";
}  // namespace phdr

// Default TTL for pool-manager delegation, analogous to the IP TTL
// field (§5.2.2).
inline constexpr int kDefaultTtl = 8;

// The error a pool manager or pool replies with to a query that carries
// no sched hints.
inline constexpr std::string_view kNoSchedHints =
    "query carries no sched-hints header";

// Stamps the sched hints of `q` on `message`, in this order: pool-name,
// sched-hints, ttl (kDefaultTtl), then access-group when the query sets
// one. Every sender of a query to a pool manager or pool stamps through
// this function. Application terms (count, starttime, duration,
// expectedcpuuse, ...) stamp nothing: a pool grants one machine per
// query, immediately.
void StampSchedHints(const query::Query& q, net::Message* message);

// Builds a client query message: routing headers plus the query text.
// It carries no sched hints; the query manager stamps those.
net::Message MakeQueryMessage(const query::Query& q,
                              const net::Address& reply_to,
                              const net::Address& final_reply_to,
                              std::uint64_t request_id);

// Result of a successful allocation at a resource pool.
struct Allocation {
  std::string machine_name;
  std::uint32_t machine_id = 0;
  std::uint16_t port = 0;
  std::string session_key;
  std::uint32_t shadow_uid = 0;
  std::string pool_name;
  net::Address pool_address;
  double machine_load = 0.0;
  std::uint64_t request_id = 0;
  std::uint32_t fragment_index = 0;
  std::uint32_t fragment_total = 1;
};

net::Message MakeAllocationMessage(const Allocation& allocation);
Result<Allocation> ParseAllocationMessage(const net::Message& message);

net::Message MakeFailureMessage(std::uint64_t request_id,
                                const std::string& error,
                                std::uint32_t fragment_index = 0,
                                std::uint32_t fragment_total = 1);

net::Message MakeReleaseMessage(std::uint32_t machine_id,
                                const std::string& session_key);

// Parses "i/n" fragment headers; defaults to 0/1.
void ParseFragmentHeader(const net::Message& message, std::uint32_t* index,
                         std::uint32_t* total);

// The request-id header as an integer; 0 when absent or malformed.
// Shared by every stage (and the profiler hooks) so correlation ids
// are parsed one way.
[[nodiscard]] std::uint64_t RequestIdOf(const net::Message& message);

}  // namespace actyp::pipeline
