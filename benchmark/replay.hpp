// Layer replay: times each layer's public entry points outside the
// simulator, on a deployment built like one site of the workload (same
// fleet via workload::BuildFleet, same queries via QueryGenerator, same
// stage configs; LP workloads replay site 0 and the queries its pools
// serve). Stages run through a recording NodeContext that captures
// their sends, so one request is chained by hand:
//
//   client -> QueryManager -> PoolManager -> ResourcePool (allocate)
//          -> Reintegrator -> client -> ResourcePool (release)
//
// Each entry point's host time (steady_clock) and heap allocations
// (alloc_counter) are accumulated per call; trace_main.cpp multiplies
// them by the calls per query the simulated run measured.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "actyp/scenario.hpp"

namespace actyp::benchmark {

// Host time and heap allocations of one entry point. Calls are grouped
// into blocks (64 calls or 5 ms, whichever comes first); the time per
// call is the median of the block means, so bursts of contention from
// other processes drop out while amortized costs inside a block stay.
class CallCost {
 public:
  void Add(double ns, std::uint64_t calls, std::uint64_t allocs);

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] double ns_per_call() const;
  [[nodiscard]] double allocs_per_call() const {
    return calls_ == 0 ? 0
                       : static_cast<double>(allocs_) /
                             static_cast<double>(calls_);
  }

 private:
  std::uint64_t calls_ = 0;
  std::uint64_t allocs_ = 0;
  std::vector<double> block_ns_per_call_;
  double open_ns_ = 0;
  std::uint64_t open_calls_ = 0;
};

struct ReplayCosts {
  // Pipeline stages (one OnMessage call each).
  CallCost client;        // next-query tick, allocation, job-done tick
  CallCost qm;
  CallCost pm;
  CallCost pool_query;    // selection + allocation
  CallCost pool_release;
  CallCost pool_tick;     // refresh (and re-sort for linear policies)
  CallCost reint;
  // White pages and background services.
  CallCost monitor_sweep;   // ResourceMonitor::Step
  CallCost db_foreach;      // ResourceDatabase::ForEach over the site fleet
  CallCost db_update;       // ResourceDatabase::Update, one record
  std::size_t db_records = 0;
  CallCost replica_sync;    // one anti-entropy tick; no calls when the
                            // workload has no replicated directory
  // Simulator substrate.
  CallCost kernel_event;    // SimKernel schedule + step (hold model)
  CallCost network_message; // SimNetwork post -> deliver -> no-op handler
  // Nested helpers (already inside the stage costs above).
  CallCost message_build;    // MakeQueryMessage
  CallCost header_lookup;    // RequestIdOf
  CallCost alloc_roundtrip;  // MakeAllocationMessage + ParseAllocationMessage
  CallCost query_parse;      // query::Parser::Parse
  CallCost profile_record;   // StageProfiler::Record

  std::string error;  // non-empty when the request chain broke
};

// `lp` is whether the scenario runs on the LP engine (one site per
// shard), `kernel_depth` the pending-event depth per kernel to replay
// the kernel and network at, `budget_ms` the host time spent per layer.
ReplayCosts RunReplay(const ScenarioConfig& config, bool lp,
                      std::size_t kernel_depth, double budget_ms);

}  // namespace actyp::benchmark
