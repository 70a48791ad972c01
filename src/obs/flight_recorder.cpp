#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <tuple>

namespace actyp::obs {
namespace {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatTime(SimTime t) {
  const double seconds = ToSeconds(t);
  if (!std::isfinite(seconds)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", seconds);
  return buffer;
}

}  // namespace

std::string_view FlightKindName(FlightKind kind) {
  switch (kind) {
    case FlightKind::kMsgSend: return "msg_send";
    case FlightKind::kMsgRecv: return "msg_recv";
    case FlightKind::kMsgDropLoss: return "msg_drop_loss";
    case FlightKind::kMsgDropPartition: return "msg_drop_partition";
    case FlightKind::kMsgDropDeadNode: return "msg_drop_dead_node";
    case FlightKind::kTimerArm: return "timer_arm";
    case FlightKind::kTimerFire: return "timer_fire";
    case FlightKind::kTimerCancel: return "timer_cancel";
    case FlightKind::kFaultStrike: return "fault_strike";
    case FlightKind::kFaultRecover: return "fault_recover";
    case FlightKind::kReplicaSync: return "replica_sync";
    case FlightKind::kPoolClaim: return "pool_claim";
    case FlightKind::kPoolRelease: return "pool_release";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::uint32_t shard, std::size_t capacity)
    : shard_(shard), capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

#if !defined(ACTYP_PROFILE_OFF)
void FlightRecorder::Record(SimTime t, FlightKind kind, std::uint64_t id,
                            std::string_view node,
                            std::string_view detail) {
  FlightEvent event;
  event.t = t;
  event.kind = kind;
  event.shard = shard_;
  event.seq = seq_++;
  event.id = id;
  event.node.assign(node);
  event.detail.assign(detail);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[ring_next_] = std::move(event);
    ring_next_ = (ring_next_ + 1) % capacity_;
  }
  ++recorded_;
}
#endif

void FlightRecorder::Reset() {
  ring_.clear();
  ring_next_ = 0;
  recorded_ = 0;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
    return out;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<FlightEvent> MergeFlightEvents(
    std::vector<std::vector<FlightEvent>> per_shard) {
  std::vector<FlightEvent> merged;
  std::size_t total = 0;
  for (const auto& events : per_shard) total += events.size();
  merged.reserve(total);
  for (auto& events : per_shard) {
    for (auto& event : events) merged.push_back(std::move(event));
  }
  // Each shard's snapshot is already (t, seq)-ordered; a stable global
  // order only needs the cross-shard tie-breaks.
  std::sort(merged.begin(), merged.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return std::tie(a.t, a.shard, a.seq) <
                     std::tie(b.t, b.shard, b.seq);
            });
  return merged;
}

std::string FlightEventJson(const FlightEvent& event) {
  std::string out;
  out.reserve(96 + event.node.size() + event.detail.size());
  out += "{\"t\":";
  out += FormatTime(event.t);
  out += ",\"kind\":\"";
  out += FlightKindName(event.kind);
  out += "\",\"shard\":";
  out += std::to_string(event.shard);
  out += ",\"seq\":";
  out += std::to_string(event.seq);
  out += ",\"id\":";
  out += std::to_string(event.id);
  out += ",\"node\":\"";
  out += JsonEscape(event.node);
  out += "\",\"detail\":\"";
  out += JsonEscape(event.detail);
  out += "\"}";
  return out;
}

void WriteFlightJsonl(const std::vector<FlightEvent>& events,
                      std::ostream& out) {
  for (const auto& event : events) {
    out << FlightEventJson(event) << '\n';
  }
}

Status WriteFlightJsonlFile(const std::vector<FlightEvent>& events,
                            const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Unavailable("cannot open '" + path + "' for writing");
  WriteFlightJsonl(events, out);
  out.flush();
  if (!out) return Unavailable("write to '" + path + "' failed");
  return Status::Ok();
}

}  // namespace actyp::obs
