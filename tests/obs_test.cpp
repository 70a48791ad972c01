// Observability tests: flight-recorder ring semantics, determinism of
// the merged flight stream across repeat runs and LP worker counts,
// byte-identity of the simulation with the recorder on vs off, the
// histogram percentiles against exact quantiles, and telemetry
// sample-stream determinism (including the sampled Measure overload
// leaving the run byte-identical to the unsampled one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "actyp/scenario.hpp"
#include "common/rng.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "profile/metrics_exporter.hpp"
#include "profile/stage_profiler.hpp"

namespace actyp {
namespace {

using obs::FlightEvent;
using obs::FlightKind;
using obs::FlightRecorder;

ScenarioConfig SmallConfig() {
  ScenarioConfig config;
  config.machines = 200;
  config.clusters = 1;
  config.clients = 4;
  config.seed = 4242;
  return config;
}

ScenarioConfig WanConfig(std::size_t cell_jobs) {
  ScenarioConfig config;
  config.machines = 200;
  config.clusters = 2;
  config.clients = 4;
  config.wan_sites = 2;
  config.cell_jobs = cell_jobs;
  config.seed = 4242;
  return config;
}

std::vector<std::string> Jsonl(const std::vector<FlightEvent>& events) {
  std::vector<std::string> lines;
  lines.reserve(events.size());
  for (const FlightEvent& event : events) {
    lines.push_back(obs::FlightEventJson(event));
  }
  return lines;
}

std::vector<std::string> Jsonl(
    const std::vector<profile::MetricCell>& cells) {
  std::vector<std::string> lines;
  lines.reserve(cells.size());
  for (const profile::MetricCell& cell : cells) {
    lines.push_back(profile::MetricCellJson(cell));
  }
  return lines;
}

TEST(FlightRecorder, RingKeepsMostRecentAndSeqSurvivesReset) {
  FlightRecorder recorder(/*shard=*/3, /*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    recorder.Record(Seconds(i), FlightKind::kTimerFire,
                    static_cast<std::uint64_t>(i), "node", "tick");
  }
  EXPECT_EQ(recorder.recorded(), 6u);
  const auto window = recorder.Snapshot();
  ASSERT_EQ(window.size(), 4u);
  // Oldest first, and only the most recent four survive.
  EXPECT_EQ(window.front().id, 2u);
  EXPECT_EQ(window.back().id, 5u);
  for (const FlightEvent& event : window) EXPECT_EQ(event.shard, 3u);

  recorder.Reset();
  EXPECT_TRUE(recorder.Snapshot().empty());
  recorder.Record(Seconds(9), FlightKind::kTimerArm, 7, "node", "later");
  // The sequence counter keeps climbing across Reset: merged streams
  // stay strictly ordered even when the window is rebuilt mid-run.
  EXPECT_GT(recorder.Snapshot().front().seq, window.back().seq);
}

TEST(FlightRecorder, MergeOrdersByTimeShardSeq) {
  FlightRecorder a(/*shard=*/0, /*capacity=*/8);
  FlightRecorder b(/*shard=*/1, /*capacity=*/8);
  a.Record(Seconds(2), FlightKind::kMsgSend, 1, "n", "");
  b.Record(Seconds(1), FlightKind::kMsgSend, 2, "n", "");
  b.Record(Seconds(2), FlightKind::kMsgRecv, 3, "n", "");
  auto merged = obs::MergeFlightEvents({a.Snapshot(), b.Snapshot()});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 2u);  // t=1
  EXPECT_EQ(merged[1].id, 1u);  // t=2 shard 0 before shard 1
  EXPECT_EQ(merged[2].id, 3u);
}

TEST(FlightRecorder, EventJsonShape) {
  FlightEvent event;
  event.t = Millis(1500);
  event.kind = FlightKind::kMsgDropLoss;
  event.shard = 1;
  event.seq = 7;
  event.id = 42;
  event.node = "client0";
  event.detail = "p=\"0.5\"";
  EXPECT_EQ(obs::FlightEventJson(event),
            "{\"t\":1.5,\"kind\":\"msg_drop_loss\",\"shard\":1,"
            "\"seq\":7,\"id\":42,\"node\":\"client0\","
            "\"detail\":\"p=\\\"0.5\\\"\"}");
}

TEST(Flight, RepeatRunsProduceIdenticalStreams) {
  ScenarioConfig config = SmallConfig();
  config.flight_recorder = true;
  SimScenario first(config);
  first.Measure(Seconds(2), Seconds(10));
  SimScenario second(config);
  second.Measure(Seconds(2), Seconds(10));
  const auto lines = Jsonl(first.FlightSnapshot());
  EXPECT_FALSE(lines.empty());
  EXPECT_EQ(lines, Jsonl(second.FlightSnapshot()));
}

TEST(Flight, RecorderDoesNotPerturbTheRun) {
  ScenarioConfig off = SmallConfig();
  ScenarioConfig on = SmallConfig();
  on.flight_recorder = true;
  SimScenario plain(off);
  plain.Measure(Seconds(2), Seconds(10));
  SimScenario recorded(on);
  recorded.Measure(Seconds(2), Seconds(10));
  EXPECT_EQ(plain.collector().completed(), recorded.collector().completed());
  EXPECT_EQ(plain.collector().failures(), recorded.collector().failures());
  EXPECT_DOUBLE_EQ(plain.collector().response_stats().mean(),
                   recorded.collector().response_stats().mean());
  EXPECT_EQ(plain.total_events(), recorded.total_events());
}

TEST(Flight, MergedStreamIdenticalAcrossCellJobs) {
  ScenarioConfig serial = WanConfig(/*cell_jobs=*/1);
  serial.flight_recorder = true;
  ScenarioConfig threaded = WanConfig(/*cell_jobs=*/2);
  threaded.flight_recorder = true;
  SimScenario one(serial);
  one.Measure(Seconds(2), Seconds(10));
  SimScenario two(threaded);
  two.Measure(Seconds(2), Seconds(10));
  ASSERT_TRUE(one.lp_mode());
  ASSERT_TRUE(two.lp_mode());
  const auto lines = Jsonl(one.FlightSnapshot());
  EXPECT_FALSE(lines.empty());
  // Both LP shards contribute to the merged stream.
  bool saw_shard1 = false;
  for (const FlightEvent& event : one.FlightSnapshot()) {
    if (event.shard == 1) saw_shard1 = true;
  }
  EXPECT_TRUE(saw_shard1);
  EXPECT_EQ(lines, Jsonl(two.FlightSnapshot()));
}

TEST(Quantiles, HistogramIsWithinOneBucketOfExactNearestRank) {
  // The oracle for the per-stage percentiles: the histogram sees every
  // span, and its interpolated p50/p95/p99 must land within one
  // geometric bucket (16 per decade, about 15.5% wide) of the exact
  // nearest-rank quantiles of the recorded durations.
  profile::StageProfiler profiler;
  Rng rng(7);
  std::vector<double> durations;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    // Log-uniform from 100 us to 10 s, so the three quantiles fall in
    // different decades.
    const auto exit =
        static_cast<SimTime>(std::pow(10.0, 2.0 + 5.0 * rng.NextDouble()));
    profiler.Record(profile::Stage::kPoolSelect, i, 0, exit);
    durations.push_back(ToSeconds(exit));
  }
  std::sort(durations.begin(), durations.end());
  const auto nearest_rank = [&durations](double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(durations.size())));
    return durations[std::clamp<std::size_t>(rank, 1, durations.size()) - 1];
  };
  const double bucket = std::pow(10.0, 1.0 / 16) - 1;
  const auto summary = profiler.Summary(profile::Stage::kPoolSelect);
  EXPECT_EQ(summary.count, durations.size());
  for (const auto& [q, estimate] :
       {std::pair{0.50, summary.p50_s}, std::pair{0.95, summary.p95_s},
        std::pair{0.99, summary.p99_s}}) {
    const double exact = nearest_rank(q);
    EXPECT_NEAR(estimate, exact, bucket * exact) << "q=" << q;
  }
}

// Samplers share one chunk loop: each keeps its own grid (window start,
// every interval after it, window end), a second sampler does not move
// the first one's sample times, and the run is unperturbed.
TEST(Telemetry, SampledMeasureDoesNotPerturbTheRun) {
  ScenarioConfig config = SmallConfig();
  SimScenario plain(config);
  plain.Measure(Seconds(2), Seconds(10));
  SimScenario sampled(config);
  std::vector<SimTime> alone;
  sampled.Measure(Seconds(2), Seconds(10),
                  {{Seconds(1), [&](SimTime t) { alone.push_back(t); }}});
  EXPECT_EQ(alone.size(), 11u);  // the window start plus ten chunk ends
  SimScenario both(config);
  std::vector<SimTime> seconds;
  std::vector<SimTime> fast;
  both.Measure(Seconds(2), Seconds(10),
               {{Seconds(1), [&](SimTime t) { seconds.push_back(t); }},
                {Millis(300), [&](SimTime t) { fast.push_back(t); }}});
  EXPECT_EQ(seconds, alone);
  std::vector<SimTime> grid;
  for (SimTime t = Seconds(2); t < Seconds(12); t += Millis(300)) {
    grid.push_back(t);
  }
  grid.push_back(Seconds(12));
  EXPECT_EQ(fast, grid);  // 2.0, 2.3, ..., 11.9, then the window end
  for (SimScenario* run : {&sampled, &both}) {
    EXPECT_EQ(plain.collector().completed(), run->collector().completed());
    EXPECT_DOUBLE_EQ(plain.collector().response_stats().mean(),
                     run->collector().response_stats().mean());
    EXPECT_EQ(plain.total_events(), run->total_events());
  }
}

// RunUntil(end, samplers) samples every interval after the current
// time and at `end`, never at the current time: consecutive calls each
// restart the grid at their own start, sample their shared boundary
// once, and leave the run exactly as one plain RunUntil leaves it.
TEST(Telemetry, ConsecutiveSampledRunsShareTheirBoundaryOnce) {
  ScenarioConfig config = SmallConfig();
  SimScenario plain(config);
  plain.RunUntil(Seconds(12));
  SimScenario sampled(config);
  std::vector<SimTime> seen;
  const std::vector<SimScenario::Sampler> samplers = {
      {Seconds(2), [&](SimTime t) { seen.push_back(t); }},
      {0, [](SimTime) { ADD_FAILURE() << "a switched-off sampler ran"; }}};
  sampled.RunUntil(Seconds(2));
  sampled.RunUntil(Seconds(7), samplers);
  sampled.RunUntil(Seconds(12), samplers);
  EXPECT_EQ(seen, (std::vector<SimTime>{Seconds(4), Seconds(6), Seconds(7),
                                        Seconds(9), Seconds(11),
                                        Seconds(12)}));
  EXPECT_GT(sampled.collector().completed(), 0u);
  EXPECT_EQ(plain.collector().completed(), sampled.collector().completed());
  EXPECT_EQ(plain.total_events(), sampled.total_events());
}

TEST(Telemetry, SampleStreamIsDeterministic) {
  const auto run = [](std::size_t cell_jobs) {
    ScenarioConfig config = WanConfig(cell_jobs);
    SimScenario scenario(config);
    std::vector<profile::MetricCell> samples;
    const auto sample = [&](SimTime t) {
      samples.push_back(obs::TelemetrySample(scenario, t));
    };
    scenario.Measure(Seconds(2), Seconds(10), {{Seconds(1), sample}});
    return Jsonl(samples);
  };
  const auto first = run(1);
  EXPECT_EQ(first.size(), 11u);
  EXPECT_EQ(first, run(1));
  // The LP worker count is an execution knob: same gauges, same bytes.
  EXPECT_EQ(first, run(2));
}

TEST(Telemetry, GaugesTrackTheRun) {
  ScenarioConfig config = SmallConfig();
  SimScenario scenario(config);
  std::vector<profile::MetricCell> samples;
  const auto sample = [&](SimTime t) {
    samples.push_back(obs::TelemetrySample(scenario, t));
  };
  scenario.Measure(Seconds(2), Seconds(10), {{Seconds(1), sample}});
  ASSERT_FALSE(samples.empty());
  const auto value = [](const profile::MetricCell& cell,
                        const std::string& key) {
    for (const auto& [name, v] : cell.values) {
      if (name == key) return v;
    }
    ADD_FAILURE() << "missing gauge " << key;
    return 0.0;
  };
  // t_s is the sim clock in seconds: warmup ended at 2 s.
  EXPECT_DOUBLE_EQ(value(samples.front(), "t_s"), 2.0);
  EXPECT_DOUBLE_EQ(value(samples.back(), "t_s"), 12.0);
  // Completed counts are cumulative and non-decreasing over the window.
  double last = -1;
  for (const auto& cell : samples) {
    const double completed = value(cell, "completed");
    EXPECT_GE(completed, last);
    last = completed;
  }
  EXPECT_GT(last, 0.0);
  EXPECT_DOUBLE_EQ(value(samples.back(), "failures"), 0.0);
}

}  // namespace
}  // namespace actyp
