#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "chaos/invariants.hpp"

namespace actyp::benchmark {
namespace {

// Warmup before every measure window, excluded from every metric.
constexpr double kWarmupSimSeconds = 3.0;
// The window runs in this many equal simulated chunks, each timed on
// its own, so run.py can keep bursts of contention from other
// processes out of the host rates.
constexpr int kChunks = 20;

ScenarioConfig LanIndexed(std::uint64_t seed) {
  ScenarioConfig config;
  config.machines = 1600;
  config.clusters = 4;
  config.policy = "least-load";
  config.query_managers = 8;
  config.pool_managers = 2;
  config.clients = 64;
  config.seed = seed;
  return config;
}

ScenarioConfig LanLinear(std::uint64_t seed) {
  ScenarioConfig config;
  config.machines = 12800;
  config.clusters = 8;
  config.policy = "linear-least-load";
  config.query_managers = 2;
  config.pool_managers = 2;
  config.clients = 64;
  config.seed = seed;
  return config;
}

// The big_wan scenario's deployment on 2 LP workers.
ScenarioConfig WanLp(std::uint64_t seed) {
  ScenarioConfig config;
  config.machines = 40000;
  config.clusters = 32;
  config.wan_sites = 8;
  config.query_managers = 2;
  config.pool_managers = 2;
  config.clients = 96;
  config.policy = "linear-least-load";
  config.cell_jobs = 2;
  config.seed = seed;
  return config;
}

ScenarioConfig WanChurn(std::uint64_t seed) {
  ScenarioConfig config;
  config.wan = true;
  config.machines = 6400;
  config.clusters = 4;
  config.pool_replicas = 2;
  config.policy = "least-load";
  config.query_managers = 2;
  config.pool_managers = 2;
  config.directory_replicas = 3;
  config.directory_sync_period = Millis(500);
  config.clients = 128;
  config.job_duration = [](Rng& rng) {
    return Seconds(rng.Exponential(0.1));
  };
  config.client_request_timeout = Seconds(2);
  config.retry_max = 2;
  config.retry_backoff = Millis(250);
  config.message_loss_probability = 0.005;
  config.fault_plan.AddChurn(10.0, Seconds(3), "machines");
  // A service glob, so each crashed pool instance restarts after its
  // downtime ("pools" kills through the directory and never restarts).
  config.fault_plan.AddChurn(0.2, Millis(1500), "pool.*", Seconds(2));
  config.monitor_period = Seconds(1);
  config.seed = seed;
  return config;
}

constexpr Workload kWorkloads[] = {
    {"lan_indexed", 100, LanIndexed},
    {"lan_linear", 400, LanLinear},
    {"wan_lp", 200, WanLp},
    {"wan_churn", 120, WanChurn},
};

void Usage() {
  std::fprintf(stderr,
               "usage: --workload <name> [--seed N] [--window-scale F]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
}

bool ParsePositive(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value <= 0) {
    return false;
  }
  *out = value;
  return true;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Counters ReadCounters(SimScenario& scenario) {
  Counters counters;
  counters.events = scenario.total_events();
  const pipeline::PoolStats pools = scenario.TotalPoolStats();
  counters.allocations = pools.allocations;
  counters.entries_examined = pools.entries_examined;
  counters.lost = scenario.network().lost_messages() +
                  scenario.network().partition_dropped();
  counters.retries = scenario.total_client_retries();
  return counters;
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return false;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      args->workload = FindWorkload(value);
      ok = args->workload != nullptr;
    } else if (flag == "--seed") {
      char* end = nullptr;
      args->seed = std::strtoull(value, &end, 10);
      ok = end != value && *end == '\0' && value[0] != '-';
    } else if (flag == "--window-scale") {
      ok = ParsePositive(value, &args->window_scale);
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad argument: %s %s\n", argv[i - 1], value);
      Usage();
      return false;
    }
  }
  if (args->workload == nullptr) {
    Usage();
    return false;
  }
  return true;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ru_maxrss survives fork+exec, so it would report the launcher's peak
// whenever that was larger; VmHWM belongs to this address space only.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

WindowResult MeasureWindow(SimScenario& scenario, double window_s,
                           const std::function<void()>& on_window_start) {
  scenario.RunUntil(scenario.kernel().Now() + Seconds(kWarmupSimSeconds));
  scenario.ResetMeasurement();
  if (on_window_start) on_window_start();
  const Counters before = ReadCounters(scenario);
  // Cheaper than collector().completed(), which merges every site's
  // samples on LP scenarios: each accepted allocation is one response.
  auto answered = [&scenario] {
    std::uint64_t n = 0;
    for (const auto& client : scenario.clients()) {
      n += client->stats().allocations;
    }
    return n;
  };
  WindowResult result;
  result.window_s = window_s;
  const SimTime start = scenario.kernel().Now();
  const SimDuration window = Seconds(window_s);
  for (int i = 1; i <= kChunks; ++i) {
    const std::uint64_t answered0 = answered();
    const double cpu0 = CpuSeconds();
    const double wall0 = WallSeconds();
    scenario.RunUntil(start + window * i / kChunks);
    const double wall = WallSeconds() - wall0;
    const double cpu = CpuSeconds() - cpu0;
    result.chunk_completed.push_back(
        static_cast<double>(answered() - answered0));
    result.chunk_cpu_s.push_back(cpu);
    result.chunk_wall_s.push_back(wall);
    result.cpu_s += cpu;
    result.wall_s += wall;
  }

  const Counters after = ReadCounters(scenario);
  result.delta.events = after.events - before.events;
  result.delta.allocations = after.allocations - before.allocations;
  result.delta.entries_examined =
      after.entries_examined - before.entries_examined;
  result.delta.lost = after.lost - before.lost;
  result.delta.retries = after.retries - before.retries;

  workload::ResponseCollector& collector = scenario.collector();
  result.completed = collector.completed();
  result.failures = collector.failures();
  result.p50_ms = collector.QuantileSeconds(0.5) * 1e3;
  result.p999_ms = collector.QuantileSeconds(0.999) * 1e3;

  // On LP workloads this is shard 0's kernel, the only one SimScenario
  // exposes.
  const simnet::SimKernel& kernel = scenario.kernel();
  if (const auto violation = chaos::InvariantChecker::CheckTimerAccounting(
          kernel.scheduled(), kernel.executed(), kernel.cancelled(),
          kernel.pending())) {
    result.timer_violation = violation->detail;
  }
  return result;
}

void JsonLine::Key(std::string_view key) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += key;
  body_ += "\":";
}

void JsonLine::Add(std::string_view key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
}

void JsonLine::Add(std::string_view key, std::uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
}

void JsonLine::Add(std::string_view key, std::string_view value) {
  Key(key);
  body_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      body_ += '\\';
      body_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      body_ += ' ';
    } else {
      body_ += c;
    }
  }
  body_ += '"';
}

void JsonLine::Add(std::string_view key, const JsonLine& object) {
  Key(key);
  body_ += object.str();
}

void JsonLine::Add(std::string_view key, const std::vector<double>& values) {
  Key(key);
  body_ += '[';
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", values[i]);
    body_ += buf;
  }
  body_ += ']';
}

void AddWindowFields(const Args& args, const WindowResult& result,
                     JsonLine* out) {
  out->Add("workload", args.workload->name);
  out->Add("seed", args.seed);
  out->Add("window_s", result.window_s);
  out->Add("cpu_s", result.cpu_s);
  out->Add("wall_s", result.wall_s);
  out->Add("chunk_completed", result.chunk_completed);
  out->Add("chunk_cpu_s", result.chunk_cpu_s);
  out->Add("chunk_wall_s", result.chunk_wall_s);
  out->Add("peak_rss_mb", PeakRssMb());
  out->Add("completed", result.completed);
  out->Add("failures", result.failures);
  out->Add("retries", result.delta.retries);
  out->Add("events", result.delta.events);
  out->Add("allocations", result.delta.allocations);
  out->Add("entries_examined", result.delta.entries_examined);
  out->Add("lost", result.delta.lost);
  out->Add("sim_resp_p50_ms", result.p50_ms);
  out->Add("sim_resp_p999_ms", result.p999_ms);
  out->Add("timer_violation", result.timer_violation);
}

}  // namespace actyp::benchmark
