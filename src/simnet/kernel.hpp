// Discrete-event simulation kernel: a time-ordered event queue with a
// deterministic tie-break (insertion order). All figure-reproduction
// benchmarks run on this kernel, replacing the paper's physical testbed
// (UltraSPARC clients + 12-CPU Alpha server across a LAN/WAN).
//
// Storage is a slab of event slots indexed by a 4-ary heap: scheduling
// reuses freed slots instead of growing a binary heap of fat elements,
// pops are O(log4 n), and every scheduled event returns a TimerId that
// can cancel it in O(log4 n) before it fires. Cancellation is what lets
// pool re-sort ticks, injector churn timers, and client give-up timers
// disappear from the queue when their owner dies, instead of firing as
// dead no-op events.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/sim_time.hpp"

namespace actyp::simnet {

class SimKernel {
 public:
  // Handle for a scheduled event; kInvalidTimer (0) is never issued.
  // Ids embed a slot generation, so a handle kept past its event firing
  // (or cancellation) can never cancel an unrelated reused slot.
  using TimerId = std::uint64_t;
  static constexpr TimerId kInvalidTimer = 0;

  SimKernel() = default;

  [[nodiscard]] SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` microseconds from now (>= 0).
  TimerId Schedule(SimDuration delay, std::function<void()> fn);
  TimerId ScheduleAt(SimTime at, std::function<void()> fn);

  // Removes a pending event before it fires. Returns false when the
  // handle is stale: the event already fired or was already cancelled.
  bool Cancel(TimerId id);

  // Pre-sizes the slab and heap for an expected number of concurrently
  // pending events (bulk schedule without reallocation).
  void Reserve(std::size_t events);

  // Executes the next event; returns false when the queue is empty.
  bool Step();

  // Runs until the queue is empty or `max_events` fired; returns the
  // number of events executed.
  std::size_t Run(std::size_t max_events = SIZE_MAX);

  // Runs events with timestamp <= until; the clock ends at `until` even
  // if fewer events exist.
  std::size_t RunUntil(SimTime until);

  // --- LP-parallel support (conservative time windows) ---
  // Timestamp of the earliest pending event; kNoEvent when the queue is
  // empty. The LP scheduler uses this as the shard's floor when deriving
  // the safe execution horizon.
  static constexpr SimTime kNoEvent = INT64_MAX;
  [[nodiscard]] SimTime NextEventTime() const {
    return heap_.empty() ? kNoEvent : heap_[0].at;
  }

  // Runs events with timestamp strictly < bound. Unlike RunUntil the
  // clock is left at the last executed event: the LP scheduler advances
  // it explicitly (AdvanceTo) once the whole window is committed, so a
  // late cross-shard delivery inside the window can still be scheduled.
  std::size_t RunBefore(SimTime bound);

  // Advances the clock without executing anything (never backwards).
  void AdvanceTo(SimTime t) {
    if (now_ < t) now_ = t;
  }

  [[nodiscard]] bool Empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }
  // Every event ever scheduled. `executed + cancelled + pending ==
  // scheduled` is the timer-conservation identity the chaos invariant
  // checker audits at teardown.
  [[nodiscard]] std::uint64_t scheduled() const { return seq_; }

 private:
  struct Slot {
    std::uint32_t generation = 1;  // bumped on free; stale-id detection
    std::function<void()> fn;
  };

  // Heap entries carry the ordering key, so sift comparisons walk the
  // contiguous heap array without dereferencing the slab.
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;  // insertion order, the tie-break
    std::uint32_t slot;

    // (at, seq) total order: no two events compare equal.
    [[nodiscard]] bool Earlier(const HeapEntry& other) const {
      return at != other.at ? at < other.at : seq < other.seq;
    }
  };

  void Place(std::size_t pos, const HeapEntry& entry) {
    heap_[pos] = entry;
    slot_pos_[entry.slot] = static_cast<std::uint32_t>(pos);
  }
  void SiftUp(std::size_t pos);
  void SiftDown(std::size_t pos);
  void RemoveAt(std::size_t pos);
  void FreeSlot(std::uint32_t slot);

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::vector<Slot> slots_;          // slab; index = low 32 bits of TimerId
  // Heap position per slot, parallel to slots_: kept out of Slot so the
  // sift loops' position writes stay in a dense array instead of
  // dirtying the cache lines holding the callbacks.
  std::vector<std::uint32_t> slot_pos_;
  std::vector<std::uint32_t> free_;  // free slot indices
  std::vector<HeapEntry> heap_;      // 4-ary min-heap
};

}  // namespace actyp::simnet
