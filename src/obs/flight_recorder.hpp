// FlightRecorder: a bounded, deterministic ring of structured events —
// the "what actually happened" counterpart to the StageProfiler's
// "how long did it take". Every instrumented subsystem (network
// send/receive/drop, kernel timers, fault strikes and recoveries,
// replica sync rounds, pool claim/release) appends one FlightEvent
// stamped with sim time, shard, node, and request/background id, so a
// post-mortem can walk the causal chain backward from any observed
// excursion.
//
// Determinism contract: recording makes zero RNG draws and zero core
// consumptions, so enabling the recorder never perturbs the simulation
// — reports stay byte-identical with it on or off. Each LP shard owns
// its own recorder (no cross-thread sharing); SimScenario merges the
// per-shard rings in (time, shard, seq) order, which makes the merged
// stream byte-identical for any --cell-jobs worker count.
//
// Switching off mirrors the profiler: leave the recorder pointer null
// (ScenarioConfig::flight_recorder = false) and every hook reduces to
// a pointer test.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/seed_sink.hpp"
#include "common/sim_time.hpp"
#include "common/status.hpp"

namespace actyp::obs {

// Event kinds, in rough causal order of a message's life plus the
// control-plane events that bend it.
enum class FlightKind : std::uint8_t {
  kMsgSend = 0,        // message scheduled for delivery
  kMsgRecv,            // message dispatched into a node handler
  kMsgDropLoss,        // dropped by the loss model / fault loss window
  kMsgDropPartition,   // dropped by a site partition
  kMsgDropDeadNode,    // destination node gone (crashed service)
  kTimerArm,           // node armed a self-timer
  kTimerFire,          // self-timer delivered
  kTimerCancel,        // self-timer cancelled before firing
  kFaultStrike,        // fault-plan event struck
  kFaultRecover,       // fault-plan event recovered/closed
  kReplicaSync,        // one anti-entropy pull completed
  kPoolClaim,          // pool allocated a machine to a session
  kPoolRelease,        // pool released a session's machine
};

inline constexpr std::size_t kFlightKindCount = 13;

// Stable snake_case names used in JSONL dumps and the post-mortem
// timeline.
[[nodiscard]] std::string_view FlightKindName(FlightKind kind);

// One recorded event. `seq` is a recorder-local monotonic counter that
// breaks ties among same-timestamp events deterministically; `id` is a
// request id (client_id << 32 | seq), a BackgroundId, a timer id, or 0
// when no id applies.
struct FlightEvent {
  SimTime t = 0;
  FlightKind kind = FlightKind::kMsgSend;
  std::uint32_t shard = 0;
  std::uint64_t seq = 0;
  std::uint64_t id = 0;
  std::string node;
  std::string detail;

  // Member-wise order: how a FlightSink orders two cells that share a
  // seed.
  friend auto operator<=>(const FlightEvent&, const FlightEvent&) = default;
};

class FlightRecorder {
 public:
  // `shard` stamps every event (0 for the serial build); the ring keeps
  // the most recent `capacity` events.
  explicit FlightRecorder(std::uint32_t shard, std::size_t capacity = 8192);

  // Appends one event.
  void Record(SimTime t, FlightKind kind, std::uint64_t id,
              std::string_view node, std::string_view detail);

  // Clears the ring (Measure() calls this after warmup, in step with
  // the profiler and response collector). The seq counter keeps
  // counting so post-reset events never collide with pre-reset ones.
  void Reset();

  // Events recorded since construction (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint32_t shard() const { return shard_; }

  // The retained events, oldest first.
  [[nodiscard]] std::vector<FlightEvent> Snapshot() const;

 private:
  std::uint32_t shard_;
  std::size_t capacity_;
  std::vector<FlightEvent> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t seq_ = 0;
};

// Merges per-shard snapshots into one stream ordered by
// (t, shard, seq) — the canonical order a serial execution would have
// observed, identical for any worker count.
[[nodiscard]] std::vector<FlightEvent> MergeFlightEvents(
    std::vector<std::vector<FlightEvent>> per_shard);

// One event as a single-line JSON object (no trailing newline):
//   {"t":1.25,"kind":"msg_send","shard":0,"seq":17,"id":4294967297,
//    "node":"qm0","detail":"query"}
[[nodiscard]] std::string FlightEventJson(const FlightEvent& event);

// Writes one JSON line per event.
void WriteFlightJsonl(const std::vector<FlightEvent>& events,
                      std::ostream& out);
// Same, to `path` (replacing any existing file).
[[nodiscard]] Status WriteFlightJsonlFile(
    const std::vector<FlightEvent>& events, const std::string& path);

// Per-cell flight dumps from sweep cells, keyed by cell seed (see
// common/seed_sink.hpp for the drain order).
using FlightSink = SeedSink<FlightEvent>;

}  // namespace actyp::obs
