// Trace-assembly subsystem tests: joining interleaved span streams
// into per-request waterfalls, critical-path attribution, background
// span separation (replica sync / monitor sweeps), tail digests,
// deterministic sink draining (the --jobs independence guarantee),
// Chrome trace-event output well-formedness, and end-to-end coverage
// of the new replica_sync / monitor_sweep stages through a replicated
// scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "actyp/scenario.hpp"
#include "common/seed_sink.hpp"
#include "obs/flight_recorder.hpp"
#include "profile/metrics_exporter.hpp"
#include "profile/stage_profiler.hpp"
#include "profile/trace_assembler.hpp"

namespace actyp::profile {
namespace {

SpanRecord Span(std::uint64_t id, Stage stage, SimTime enter, SimTime exit) {
  return SpanRecord{id, stage, enter, exit};
}

TEST(BackgroundIdScheme, RoundTripsAndNeverCollidesWithRequests) {
  const std::uint64_t id = BackgroundId(Stage::kReplicaSync, 3);
  EXPECT_TRUE(IsBackgroundId(id));
  EXPECT_EQ(BackgroundInstance(id), 3u);
  // Request ids are (client << 32 | seq) with bit 63 clear.
  const std::uint64_t request = (7ull << 32) | 123;
  EXPECT_FALSE(IsBackgroundId(request));
  EXPECT_NE(BackgroundId(Stage::kReplicaSync, 0),
            BackgroundId(Stage::kMonitorSweep, 0));
}

TEST(StageNameTest, CoversNewBackgroundStages) {
  EXPECT_EQ(StageName(Stage::kReplicaSync), "replica_sync");
  EXPECT_EQ(StageName(Stage::kMonitorSweep), "monitor_sweep");
  EXPECT_EQ(kStageCount, 8u);
}

TEST(TraceAssemblerTest, JoinsInterleavedRequestsOnRequestId) {
  // Two requests whose spans arrive interleaved (the ring is in record
  // order, and concurrent requests interleave freely).
  const std::vector<SpanRecord> spans = {
      Span(2, Stage::kQmAdmit, 100, 150),
      Span(1, Stage::kClientIssue, 0, 500),
      Span(2, Stage::kClientIssue, 90, 400),
      Span(1, Stage::kQmAdmit, 10, 40),
      Span(2, Stage::kPoolSelect, 160, 300),
      Span(1, Stage::kPoolSelect, 50, 200),
      Span(1, Stage::kReply, 210, 230),
  };
  const AssembledTraces assembled = TraceAssembler::Assemble(spans);
  ASSERT_EQ(assembled.requests.size(), 2u);
  EXPECT_TRUE(assembled.background.empty());
  const RequestTrace& first = assembled.requests[0];
  EXPECT_EQ(first.request_id, 1u);
  ASSERT_EQ(first.spans.size(), 4u);
  // Spans are re-sorted into time order regardless of arrival order.
  EXPECT_EQ(first.spans[0].stage, Stage::kClientIssue);
  EXPECT_EQ(first.spans[1].stage, Stage::kQmAdmit);
  EXPECT_EQ(first.spans[2].stage, Stage::kPoolSelect);
  EXPECT_EQ(first.spans[3].stage, Stage::kReply);
  EXPECT_EQ(first.start, 0);
  EXPECT_EQ(first.end, 500);
  EXPECT_DOUBLE_EQ(first.duration_s, 500e-6);
  const RequestTrace& second = assembled.requests[1];
  EXPECT_EQ(second.request_id, 2u);
  ASSERT_EQ(second.spans.size(), 3u);
  EXPECT_EQ(second.start, 90);
  EXPECT_EQ(second.end, 400);
}

TEST(TraceAssemblerTest, RetryHopsStayInTimeOrderWithinOneRequest) {
  // A retried request records the same stage twice; the waterfall must
  // keep both hops, time-ordered.
  const std::vector<SpanRecord> spans = {
      Span(5, Stage::kClientIssue, 0, 1000),
      Span(5, Stage::kQmAdmit, 700, 750),  // retry hop, recorded later
      Span(5, Stage::kQmAdmit, 10, 60),    // first attempt
  };
  const AssembledTraces assembled = TraceAssembler::Assemble(spans);
  ASSERT_EQ(assembled.requests.size(), 1u);
  const RequestTrace& trace = assembled.requests[0];
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.spans[1].t_enter, 10);
  EXPECT_EQ(trace.spans[2].t_enter, 700);
  // Both hops fold into the stage total.
  EXPECT_EQ(trace.stage_total[static_cast<std::size_t>(Stage::kQmAdmit)], 100);
}

TEST(TraceAssemblerTest, AttributionPicksLargestNonUmbrellaStage) {
  const std::vector<SpanRecord> spans = {
      Span(1, Stage::kClientIssue, 0, 1000),  // umbrella, excluded
      Span(1, Stage::kQmAdmit, 10, 60),       // 50
      Span(1, Stage::kPoolSelect, 70, 370),   // 300 <- critical path
      Span(1, Stage::kReply, 380, 480),       // 100
  };
  const AssembledTraces assembled = TraceAssembler::Assemble(spans);
  ASSERT_EQ(assembled.requests.size(), 1u);
  const RequestTrace& trace = assembled.requests[0];
  EXPECT_EQ(trace.top_stage, Stage::kPoolSelect);
  EXPECT_DOUBLE_EQ(trace.top_share, 300.0 / 450.0);
}

TEST(TraceAssemblerTest, AttributionTiesGoToTheEarlierStage) {
  const std::vector<SpanRecord> spans = {
      Span(1, Stage::kReply, 100, 200),  // 100
      Span(1, Stage::kQmAdmit, 0, 100),  // 100, earlier pipeline stage
  };
  const AssembledTraces assembled = TraceAssembler::Assemble(spans);
  EXPECT_EQ(assembled.requests[0].top_stage, Stage::kQmAdmit);
}

TEST(TraceAssemblerTest, UmbrellaOnlyTraceAttributesNothing) {
  const std::vector<SpanRecord> spans = {
      Span(1, Stage::kClientIssue, 0, 1000),
  };
  const AssembledTraces assembled = TraceAssembler::Assemble(spans);
  const RequestTrace& trace = assembled.requests[0];
  EXPECT_EQ(trace.top_stage, Stage::kClientIssue);
  EXPECT_DOUBLE_EQ(trace.top_share, 0.0);
}

TEST(TraceAssemblerTest, BackgroundSpansSplitOutAndSortByTime) {
  const std::uint64_t sync0 = BackgroundId(Stage::kReplicaSync, 0);
  const std::uint64_t sweep = BackgroundId(Stage::kMonitorSweep, 0);
  const std::vector<SpanRecord> spans = {
      Span(sweep, Stage::kMonitorSweep, 5000, 5150),
      Span(1, Stage::kClientIssue, 0, 400),
      Span(sync0, Stage::kReplicaSync, 1000, 1120),
      Span(1, Stage::kQmAdmit, 10, 50),
  };
  const AssembledTraces assembled = TraceAssembler::Assemble(spans);
  ASSERT_EQ(assembled.requests.size(), 1u);
  EXPECT_EQ(assembled.requests[0].spans.size(), 2u);
  ASSERT_EQ(assembled.background.size(), 2u);
  EXPECT_EQ(assembled.background[0].stage, Stage::kReplicaSync);
  EXPECT_EQ(assembled.background[1].stage, Stage::kMonitorSweep);
}

TEST(TraceAssemblerTest, TailReportDigestsTheSlowestFraction) {
  // 40 traces: ids 1..40, durations 10 us * id; the slowest 5% window
  // is ceil(0.05 * 40) = 2 traces (ids 40, 39). Make pool_select the
  // dominant stage in the tail.
  std::vector<SpanRecord> spans;
  for (std::uint64_t id = 1; id <= 40; ++id) {
    const auto end = static_cast<SimTime>(10 * id);
    spans.push_back(Span(id, Stage::kClientIssue, 0, end));
    spans.push_back(Span(id, Stage::kPoolSelect, 0, end / 2));
    spans.push_back(Span(id, Stage::kReply, end / 2, end / 2 + 2));
  }
  const AssembledTraces assembled = TraceAssembler::Assemble(spans);
  ASSERT_EQ(assembled.requests.size(), 40u);
  const TailReport tail = TraceAssembler::Tail(assembled.requests);
  EXPECT_EQ(tail.trace_count, 40u);
  EXPECT_EQ(tail.slow_count, 2u);
  EXPECT_EQ(tail.slow_top_stage, static_cast<int>(Stage::kPoolSelect));
  // Shares cover the attributed (non-umbrella) time and sum to 1.
  double total = 0;
  for (const double share : tail.tail_share) {
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(tail.tail_share[static_cast<std::size_t>(Stage::kPoolSelect)],
            tail.tail_share[static_cast<std::size_t>(Stage::kReply)]);
}

TEST(TraceAssemblerTest, TailReportOnNothingReportsNoStage) {
  const TailReport tail = TraceAssembler::Tail({});
  EXPECT_EQ(tail.trace_count, 0u);
  EXPECT_EQ(tail.slow_count, 0u);
  EXPECT_EQ(tail.slow_top_stage, -1);
}

TEST(TraceAssemblerTest, TailAlwaysIncludesAtLeastOneTrace) {
  const std::vector<SpanRecord> spans = {
      Span(9, Stage::kClientIssue, 0, 100),
      Span(9, Stage::kReply, 10, 20),
  };
  const AssembledTraces assembled = TraceAssembler::Assemble(spans);
  const TailReport tail = TraceAssembler::Tail(assembled.requests, 0.01);
  EXPECT_EQ(tail.slow_count, 1u);
  EXPECT_EQ(tail.slow_top_stage, static_cast<int>(Stage::kReply));
}

// ---------------------------------------------------------------------
// TraceSink: deterministic drain whatever the Add() order was.
// ---------------------------------------------------------------------

TEST(TraceSinkTest, TakeOrdersCellsIndependentlyOfAddOrder) {
  std::vector<SpanRecord> cell_a = {Span(1, Stage::kQmAdmit, 0, 10)};
  std::vector<SpanRecord> cell_b = {Span(2, Stage::kQmAdmit, 5, 25)};
  std::vector<SpanRecord> cell_c = {Span(3, Stage::kReply, 7, 8)};

  TraceSink forward;
  forward.Add(100, cell_a);
  forward.Add(200, cell_b);
  forward.Add(300, cell_c);
  TraceSink reverse;
  reverse.Add(300, cell_c);
  reverse.Add(100, cell_a);
  reverse.Add(200, cell_b);
  EXPECT_EQ(forward.size(), 3u);

  const std::vector<TraceCell> lhs = forward.Take();
  const std::vector<TraceCell> rhs = reverse.Take();
  ASSERT_EQ(lhs.size(), 3u);
  ASSERT_EQ(rhs.size(), 3u);
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].seed, rhs[i].seed) << "cell " << i;
    ASSERT_EQ(lhs[i].items.size(), rhs[i].items.size());
    EXPECT_EQ(lhs[i].items[0].request_id, rhs[i].items[0].request_id);
  }
  EXPECT_EQ(lhs[0].seed, 100u);
  EXPECT_EQ(lhs[2].seed, 300u);
  // Take() drained the sink.
  EXPECT_EQ(forward.size(), 0u);
}

// Item-wise equality through operator<, the only order the sinks use.
template <typename T>
bool SameItems(const std::vector<T>& a, const std::vector<T>& b) {
  return !std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                       b.end()) &&
         !std::lexicographical_compare(b.begin(), b.end(), a.begin(),
                                       a.end());
}

// Three cells sharing a seed (a sweep can reuse seeds across scenarios)
// must drain in (size, content) order whatever order they were added
// in. `early` and `late` have equal sizes and early < late.
template <typename T>
void ExpectEqualSeedsDrainByContent(const std::vector<T>& small,
                                    const std::vector<T>& early,
                                    const std::vector<T>& late) {
  ASSERT_LT(small.size(), early.size());
  ASSERT_EQ(early.size(), late.size());
  SeedSink<T> forward;
  SeedSink<T> reverse;
  for (const auto* cell : {&small, &early, &late}) forward.Add(42, *cell);
  for (const auto* cell : {&late, &early, &small}) reverse.Add(42, *cell);
  for (const auto& cells : {forward.Take(), reverse.Take()}) {
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_TRUE(SameItems(cells[0].items, small));
    EXPECT_TRUE(SameItems(cells[1].items, early));
    EXPECT_TRUE(SameItems(cells[2].items, late));
  }
}

TEST(TraceSinkTest, EqualSeedsOrderByContent) {
  // Span rings (TraceSink).
  ExpectEqualSeedsDrainByContent<SpanRecord>(
      {Span(1, Stage::kReply, 0, 5)},
      {Span(1, Stage::kReply, 0, 5), Span(2, Stage::kReply, 6, 9)},
      {Span(1, Stage::kReply, 0, 5), Span(3, Stage::kReply, 6, 9)});

  // Flight-event streams (FlightSink).
  const obs::FlightEvent send{10, obs::FlightKind::kMsgSend, 0, 1, 7, "qm0",
                              "query"};
  obs::FlightEvent recv = send;
  recv.kind = obs::FlightKind::kMsgRecv;
  obs::FlightEvent drop = send;
  drop.kind = obs::FlightKind::kMsgDropLoss;
  ExpectEqualSeedsDrainByContent<obs::FlightEvent>({send}, {send, recv},
                                                   {send, drop});

  // Telemetry series (TelemetrySink): same seed label and gauge names,
  // different readings.
  const auto sample = [](double t, double completed) {
    MetricCell cell;
    cell.scenario = "telemetry";
    cell.labels.emplace_back("seed", "42");
    cell.values.emplace_back("t_s", t);
    cell.values.emplace_back("completed", completed);
    return cell;
  };
  ExpectEqualSeedsDrainByContent<MetricCell>(
      {sample(1, 3)}, {sample(1, 3), sample(2, 5)},
      {sample(1, 3), sample(2, 8)});
}

// ---------------------------------------------------------------------
// Chrome trace-event output.
// ---------------------------------------------------------------------

std::string ChromeJson(const std::vector<TraceCell>& cells,
                       const ChromeTraceOptions& options = {}) {
  std::ostringstream out;
  WriteChromeTrace(cells, options, out);
  return out.str();
}

std::vector<TraceCell> SampleCells() {
  std::vector<SpanRecord> spans;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    const auto end = static_cast<SimTime>(100 * id);
    spans.push_back(Span(id, Stage::kClientIssue, 0, end));
    spans.push_back(Span(id, Stage::kPoolSelect, 10, end / 2));
  }
  spans.push_back(Span(BackgroundId(Stage::kReplicaSync, 1),
                       Stage::kReplicaSync, 1000, 1200));
  return {TraceCell{7, spans}};
}

TEST(ChromeTraceTest, OutputIsBalancedJsonWithExpectedEvents) {
  const std::string json = ChromeJson(SampleCells());
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pool_select\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"replica_sync\""), std::string::npos);
  EXPECT_NE(json.find("replica_sync 1"), std::string::npos);  // lane name
  // Braces and brackets balance (well-formed without a JSON parser; no
  // string value here contains a brace).
  long braces = 0, brackets = 0;
  for (const char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ChromeTraceTest, SlowLanesPickTheSlowestTraces) {
  ChromeTraceOptions options;
  options.slow_n = 2;
  options.exemplar_n = 1;
  const std::string json = ChromeJson(SampleCells(), options);
  // The two slowest requests are ids 8 (800 us) and 7 (700 us).
  EXPECT_NE(json.find("slow req 8 (800 us)"), std::string::npos);
  EXPECT_NE(json.find("slow req 7 (700 us)"), std::string::npos);
  EXPECT_EQ(json.find("slow req 6"), std::string::npos);
  EXPECT_NE(json.find("exemplar req"), std::string::npos);
}

TEST(ChromeTraceTest, SameCellsProduceByteIdenticalOutput) {
  EXPECT_EQ(ChromeJson(SampleCells()), ChromeJson(SampleCells()));
}

TEST(ChromeTraceTest, EmptyCellListStillWellFormed) {
  const std::string json = ChromeJson({});
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end: replicated scenario produces the new background spans.
// ---------------------------------------------------------------------

ScenarioConfig ReplicatedPipeline() {
  ScenarioConfig config;
  config.machines = 60;
  config.clusters = 2;
  config.clients = 4;
  config.seed = 424242;
  config.directory_replicas = 2;
  config.profile = true;
  // Sweep every simulated second (instead of the default 5) so monitor
  // spans land inside a short measure window, and widen the ring so
  // the request flood cannot evict the background spans before the
  // snapshot is taken.
  config.monitor_period = Seconds(1.0);
  config.profile_ring_capacity = 1 << 16;
  return config;
}

TEST(PipelineTracing, ReplicatedScenarioRecordsBackgroundSpans) {
  SimScenario scenario(ReplicatedPipeline());
  // Measure past the monitor's first 5 s sweep tick (monitor_period is
  // unscaled) so both background stages appear.
  scenario.Measure(1'000'000, 4'000'000);
  ASSERT_NE(scenario.profiler(), nullptr);
  EXPECT_GT(scenario.profiler()->Summary(Stage::kReplicaSync).count, 0u);
  EXPECT_GT(scenario.profiler()->Summary(Stage::kMonitorSweep).count, 0u);
  const AssembledTraces assembled =
      TraceAssembler::Assemble(scenario.profiler()->RingSnapshot());
  EXPECT_GT(assembled.requests.size(), 0u);
  bool saw_sync = false, saw_sweep = false;
  for (const SpanRecord& span : assembled.background) {
    saw_sync = saw_sync || span.stage == Stage::kReplicaSync;
    saw_sweep = saw_sweep || span.stage == Stage::kMonitorSweep;
    EXPECT_TRUE(IsBackgroundId(span.request_id));
    EXPECT_GE(span.t_exit, span.t_enter);
  }
  EXPECT_TRUE(saw_sync);
  EXPECT_TRUE(saw_sweep);
  // No background id leaked into a request trace.
  for (const RequestTrace& trace : assembled.requests) {
    EXPECT_FALSE(IsBackgroundId(trace.request_id));
  }
}

TEST(PipelineTracing, FixedSeedTraceOutputIsDeterministic) {
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    SimScenario scenario(ReplicatedPipeline());
    scenario.Measure(1'000'000, 4'000'000);
    ASSERT_NE(scenario.profiler(), nullptr);
    TraceSink sink;
    sink.Add(scenario.config().seed, scenario.profiler()->RingSnapshot());
    std::ostringstream json;
    WriteChromeTrace(sink.Take(), ChromeTraceOptions{}, json);
    *out = json.str();
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(PipelineTracing, BackgroundSpansDoNotPerturbTheSimulation) {
  // The modeled-cost spans are bookkeeping only: profiling a replicated
  // scenario must not change what the simulation computes.
  ScenarioConfig on_config = ReplicatedPipeline();
  ScenarioConfig off_config = ReplicatedPipeline();
  off_config.profile = false;
  SimScenario on(on_config);
  on.Measure(1'000'000, 4'000'000);
  SimScenario off(off_config);
  off.Measure(1'000'000, 4'000'000);
  EXPECT_EQ(on.collector().completed(), off.collector().completed());
  EXPECT_EQ(on.collector().failures(), off.collector().failures());
  EXPECT_DOUBLE_EQ(on.collector().response_stats().mean(),
                   off.collector().response_stats().mean());
}

TEST(PipelineTracing, TailReportFromScenarioIsConsistent) {
  SimScenario scenario(ReplicatedPipeline());
  scenario.Measure(1'000'000, 4'000'000);
  ASSERT_NE(scenario.profiler(), nullptr);
  const AssembledTraces assembled =
      TraceAssembler::Assemble(scenario.profiler()->RingSnapshot());
  const TailReport tail = TraceAssembler::Tail(assembled.requests);
  ASSERT_GT(tail.trace_count, 0u);
  EXPECT_GE(tail.slow_count, 1u);
  EXPECT_LE(tail.slow_count, tail.trace_count);
  EXPECT_GE(tail.slow_top_stage, 0);
  EXPECT_LT(tail.slow_top_stage, static_cast<int>(kStageCount));
  double total = 0;
  for (const double share : tail.tail_share) {
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0);
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// --- --trace-filter (TraceFilter parse + cell filtering) ---

TEST(TraceFilterTest, ParsesAnySubsetOfTerms) {
  std::string error;
  const auto empty = TraceFilter::Parse("", &error);
  ASSERT_TRUE(empty.has_value());
  EXPECT_FALSE(empty->active());

  const auto full =
      TraceFilter::Parse("request=42,stage=pool_select,min-dur=0.25", &error);
  ASSERT_TRUE(full.has_value()) << error;
  EXPECT_TRUE(full->active());
  ASSERT_TRUE(full->request_id.has_value());
  EXPECT_EQ(*full->request_id, 42u);
  ASSERT_TRUE(full->stage.has_value());
  EXPECT_EQ(*full->stage, Stage::kPoolSelect);
  EXPECT_DOUBLE_EQ(full->min_duration_s, 0.25);
}

TEST(TraceFilterTest, RejectsMalformedSpecs) {
  std::string error;
  for (const char* bad :
       {"request=abc", "stage=bogus_stage", "min-dur=fast", "color=red"}) {
    EXPECT_FALSE(TraceFilter::Parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(TraceFilterTest, FiltersCellsByAllSetCriteria) {
  TraceCell cell;
  cell.seed = 9;
  // Request 1: 500 us with a pool_select hop. Request 2: 80 us, no
  // pool_select. One background monitor sweep.
  cell.items = {
      Span(1, Stage::kClientIssue, 0, 500),
      Span(1, Stage::kPoolSelect, 50, 200),
      Span(2, Stage::kClientIssue, 0, 80),
      Span(2, Stage::kQmAdmit, 10, 30),
      Span(BackgroundId(Stage::kMonitorSweep, 0), Stage::kMonitorSweep, 0,
           900),
  };

  TraceFilter by_stage;
  by_stage.stage = Stage::kPoolSelect;
  auto kept = FilterTraceCells({cell}, by_stage);
  ASSERT_EQ(kept.size(), 1u);
  // Request 2 (no pool_select) and the non-matching background span
  // are dropped; request 1 keeps all of its spans.
  EXPECT_EQ(kept[0].items.size(), 2u);
  for (const SpanRecord& span : kept[0].items) {
    EXPECT_EQ(span.request_id, 1u);
  }

  TraceFilter by_duration;
  by_duration.min_duration_s = 100e-6;
  kept = FilterTraceCells({cell}, by_duration);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].items.size(), 2u);  // only request 1 is slow enough

  TraceFilter by_id;
  by_id.request_id = 2;
  kept = FilterTraceCells({cell}, by_id);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].items.size(), 2u);
  for (const SpanRecord& span : kept[0].items) {
    EXPECT_EQ(span.request_id, 2u);
  }

  // A stage criterion keeps matching background lanes.
  TraceFilter by_background;
  by_background.stage = Stage::kMonitorSweep;
  kept = FilterTraceCells({cell}, by_background);
  ASSERT_EQ(kept.size(), 1u);
  ASSERT_EQ(kept[0].items.size(), 1u);
  EXPECT_EQ(kept[0].items[0].stage, Stage::kMonitorSweep);

  // An inactive filter passes everything through untouched.
  kept = FilterTraceCells({cell}, TraceFilter{});
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].items.size(), cell.items.size());
}

}  // namespace
}  // namespace actyp::profile
