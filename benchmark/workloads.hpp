// The benchmark's workloads and the measurement both binaries share:
// argument parsing, the warmup/measure split, host CPU and memory
// probes, and a one-line JSON writer.
//
// Every workload is a closed loop (zero think time) built only through
// the public ScenarioConfig/SimScenario surface; see README.md for why
// each one was chosen.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "actyp/scenario.hpp"

namespace actyp::benchmark {

struct Workload {
  std::string_view name;
  // Simulated measure window that takes about 8 s of host time; a run
  // measures window_scale x this.
  double base_window_s;
  ScenarioConfig (*make)(std::uint64_t seed);
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double window_scale = 0.25;
};

// Parses --workload/--seed/--window-scale; prints usage and returns
// false on anything malformed.
bool ParseArgs(int argc, char** argv, Args* args);

double WallSeconds();  // steady_clock
double CpuSeconds();   // CPU time of the whole process, every thread
double PeakRssMb();    // VmHWM from /proc/self/status

// Deterministic counters summed over the whole scenario.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t allocations = 0;
  std::uint64_t entries_examined = 0;
  std::uint64_t lost = 0;
  std::uint64_t retries = 0;
};

// One measure window: warmup (untimed), collector reset, then `window_s`
// simulated seconds timed on the host in equal chunks. Counter fields
// are deltas over the window.
struct WindowResult {
  double window_s = 0;
  double cpu_s = 0;   // sums over the chunks
  double wall_s = 0;
  std::vector<double> chunk_completed;
  std::vector<double> chunk_cpu_s;
  std::vector<double> chunk_wall_s;
  std::uint64_t completed = 0;
  std::uint64_t failures = 0;
  double p50_ms = 0;
  double p999_ms = 0;
  Counters delta;
  std::string timer_violation;  // empty when the kernel accounting holds
};
// `on_window_start`, when set, runs after the warmup and the collector
// reset, before the host clocks start (the traced binary snapshots its
// own counters there).
WindowResult MeasureWindow(SimScenario& scenario, double window_s,
                           const std::function<void()>& on_window_start = {});

// Ordered JSON object, printed as one line.
class JsonLine {
 public:
  void Add(std::string_view key, double value);
  void Add(std::string_view key, std::uint64_t value);
  void Add(std::string_view key, std::string_view value);
  void Add(std::string_view key, const JsonLine& object);
  void Add(std::string_view key, const std::vector<double>& values);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_;
};

// Fields both binaries print: the run's identity, the window's host
// and simulated results, and the inputs of the correctness digest.
void AddWindowFields(const Args& args, const WindowResult& result,
                     JsonLine* out);

}  // namespace actyp::benchmark
