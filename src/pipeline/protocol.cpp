#include "pipeline/protocol.hpp"

#include "common/strings.hpp"

namespace actyp::pipeline {

void StampSchedHints(const query::Query& q, net::Message* message) {
  message->SetHeader(net::hdr::kPoolName, q.PoolName());
  message->SetHeader(phdr::kSchedHints, "1");
  message->SetHeader(phdr::kTtl, std::to_string(kDefaultTtl));
  if (std::string group = q.GetUser("accessgroup"); !group.empty()) {
    message->SetHeader(phdr::kAccessGroup, std::move(group));
  }
}

net::Message MakeQueryMessage(const query::Query& q,
                              const net::Address& reply_to,
                              const net::Address& final_reply_to,
                              std::uint64_t request_id) {
  net::Message message{net::msg::kQuery};
  message.SetHeader(net::hdr::kReplyTo, reply_to);
  message.SetHeader(phdr::kFinalReplyTo, final_reply_to);
  message.SetHeader(net::hdr::kRequestId, std::to_string(request_id));
  message.body = q.ToText();
  return message;
}

net::Message MakeAllocationMessage(const Allocation& allocation) {
  net::Message message{net::msg::kAllocation};
  // Ten headers, plus the final-reply-to a pool propagates.
  message.headers.reserve(11);
  message.SetHeader(net::hdr::kMachine, allocation.machine_name);
  message.SetHeader(net::hdr::kMachineId,
                    std::to_string(allocation.machine_id));
  message.SetHeader(net::hdr::kPort, std::to_string(allocation.port));
  message.SetHeader(net::hdr::kSessionKey, allocation.session_key);
  message.SetHeader(net::hdr::kShadowUid,
                    std::to_string(allocation.shadow_uid));
  message.SetHeader(net::hdr::kPoolName, allocation.pool_name);
  message.SetHeader(phdr::kPoolAddress, allocation.pool_address);
  message.SetHeader(phdr::kLoad, std::to_string(allocation.machine_load));
  message.SetHeader(net::hdr::kRequestId,
                    std::to_string(allocation.request_id));
  message.SetHeader(phdr::kFragment,
                    std::to_string(allocation.fragment_index) + "/" +
                        std::to_string(allocation.fragment_total));
  return message;
}

std::uint64_t RequestIdOf(const net::Message& message) {
  if (auto rid = ParseInt(message.Header(net::hdr::kRequestId))) {
    return static_cast<std::uint64_t>(*rid);
  }
  return 0;
}

Result<Allocation> ParseAllocationMessage(const net::Message& message) {
  if (message.type != net::msg::kAllocation) {
    return InvalidArgument("not an allocation message: '" + message.type +
                           "'");
  }
  Allocation allocation;
  allocation.machine_name = message.Header(net::hdr::kMachine);
  if (allocation.machine_name.empty()) {
    return InvalidArgument("allocation missing machine name");
  }
  if (auto id = ParseInt(message.Header(net::hdr::kMachineId))) {
    allocation.machine_id = static_cast<std::uint32_t>(*id);
  }
  if (auto port = ParseInt(message.Header(net::hdr::kPort))) {
    allocation.port = static_cast<std::uint16_t>(*port);
  }
  allocation.session_key = message.Header(net::hdr::kSessionKey);
  if (auto uid = ParseInt(message.Header(net::hdr::kShadowUid))) {
    allocation.shadow_uid = static_cast<std::uint32_t>(*uid);
  }
  allocation.pool_name = message.Header(net::hdr::kPoolName);
  allocation.pool_address = message.Header(phdr::kPoolAddress);
  if (auto load = ParseDouble(message.Header(phdr::kLoad))) {
    allocation.machine_load = *load;
  }
  allocation.request_id = RequestIdOf(message);
  ParseFragmentHeader(message, &allocation.fragment_index,
                      &allocation.fragment_total);
  return allocation;
}

net::Message MakeFailureMessage(std::uint64_t request_id,
                                const std::string& error,
                                std::uint32_t fragment_index,
                                std::uint32_t fragment_total) {
  net::Message message{net::msg::kFailure};
  // Three headers, plus the final-reply-to a stage propagates.
  message.headers.reserve(4);
  message.SetHeader(net::hdr::kRequestId, std::to_string(request_id));
  message.SetHeader(net::hdr::kError, error);
  message.SetHeader(phdr::kFragment, std::to_string(fragment_index) + "/" +
                                         std::to_string(fragment_total));
  return message;
}

net::Message MakeReleaseMessage(std::uint32_t machine_id,
                                const std::string& session_key) {
  net::Message message{net::msg::kRelease};
  message.headers.reserve(2);
  message.SetHeader(net::hdr::kMachineId, std::to_string(machine_id));
  message.SetHeader(net::hdr::kSessionKey, session_key);
  return message;
}

void ParseFragmentHeader(const net::Message& message, std::uint32_t* index,
                         std::uint32_t* total) {
  *index = 0;
  *total = 1;
  const std::string* header = message.FindHeader(phdr::kFragment);
  if (header == nullptr) return;
  const std::string_view value = *header;
  const std::size_t slash = value.find('/');
  if (slash == std::string_view::npos ||
      value.find('/', slash + 1) != std::string_view::npos) {
    return;
  }
  if (auto i = ParseInt(value.substr(0, slash))) {
    *index = static_cast<std::uint32_t>(*i);
  }
  if (auto n = ParseInt(value.substr(slash + 1))) {
    *total = std::max<std::uint32_t>(1, static_cast<std::uint32_t>(*n));
  }
}

}  // namespace actyp::pipeline
