// TraceAssembler: joins the profiler's SpanRecords on request_id into
// per-request waterfalls — one RequestTrace per request, its spans in
// time order across every hop the request took (retries, delegation,
// fragment fan-out, the reply) — and attributes each trace's critical
// path to the stage that consumed the most of it. Background spans
// (replica anti-entropy pulls, monitor sweeps; see BackgroundId) are
// split out to their own list instead of joining any request.
//
// On top of the assembled traces:
//   - TailReport digests the slowest fraction of traces per cell
//     (which stage dominates slow requests, and each stage's share of
//     the tail's attributed time) — the slow_trace_top_stage /
//     <stage>_tail_share scenario metrics.
//   - TraceSink collects span snapshots from concurrently-running
//     sweep cells and hands them back in a deterministic order, so
//     --trace-out output is byte-identical whatever --jobs was.
//   - WriteChromeTrace emits the N slowest and N exemplar requests per
//     cell (plus all background spans) as Chrome trace-event JSON,
//     loadable in Perfetto / chrome://tracing. Timestamps are sim-time
//     microseconds verbatim, so the waterfall reads in sim time.
//
// Everything here is a pure function of the span set, with all ties
// broken on request_id / span content: fixed-seed runs produce
// byte-identical trace files.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/seed_sink.hpp"
#include "common/status.hpp"
#include "profile/stage_profiler.hpp"

namespace actyp::profile {

// One request's assembled waterfall.
struct RequestTrace {
  std::uint64_t request_id = 0;
  // Time-ordered: (t_enter, t_exit, stage) ascending.
  std::vector<SpanRecord> spans;
  SimTime start = 0;  // earliest t_enter
  SimTime end = 0;    // latest t_exit
  double duration_s = 0;
  // Summed span time per stage. kClientIssue is the client-observed
  // umbrella span covering the whole interaction, so attribution runs
  // over the other stages only.
  std::array<SimDuration, kStageCount> stage_total{};
  // Critical-path attribution: the non-umbrella stage with the largest
  // summed time (ties to the earlier pipeline stage), and its share of
  // all attributed time. kClientIssue with share 0 when the trace has
  // only the umbrella span to go on.
  Stage top_stage = Stage::kClientIssue;
  double top_share = 0;
};

struct AssembledTraces {
  std::vector<RequestTrace> requests;  // sorted by request_id
  // Background spans (IsBackgroundId), sorted by
  // (t_enter, t_exit, request_id).
  std::vector<SpanRecord> background;
};

// Digest of the slowest `slow_fraction` of traces.
struct TailReport {
  std::uint64_t trace_count = 0;  // assembled request traces
  std::uint64_t slow_count = 0;   // traces in the tail window
  // Index into Stage of the most frequent top_stage among slow traces
  // (ties to the earlier stage); -1 when there are no traces.
  int slow_top_stage = -1;
  // Stage s's share of all attributed (non-umbrella) stage time across
  // the slow traces. Sums to 1 when the tail has any attributed time.
  std::array<double, kStageCount> tail_share{};
};

class TraceAssembler {
 public:
  // Joins one cell's span snapshot (e.g. StageProfiler::RingSnapshot)
  // into request traces plus the background span list.
  [[nodiscard]] static AssembledTraces Assemble(
      const std::vector<SpanRecord>& spans);

  // Tail digest over the slowest ceil(slow_fraction * n) traces
  // (at least one when any trace exists); slowness ranks by
  // (duration desc, request_id asc).
  [[nodiscard]] static TailReport Tail(
      const std::vector<RequestTrace>& traces, double slow_fraction = 0.05);
};

// One sweep cell's span capture, keyed by the cell's seed, and the
// sink that collects them from sweep cells running on ThreadPool
// workers (see common/seed_sink.hpp for the drain order).
using TraceCell = SeedCell<SpanRecord>;
using TraceSink = SeedSink<SpanRecord>;

// --trace-filter: restricts which request traces --trace-out keeps.
// Every set criterion must hold: an exact request id, a stage the
// trace must contain, and a minimum end-to-end duration. When any
// criterion is set, background spans are dropped unless `stage` names
// their stage — a filtered file shows exactly what was asked for.
struct TraceFilter {
  std::optional<std::uint64_t> request_id;
  std::optional<Stage> stage;
  double min_duration_s = 0;

  [[nodiscard]] bool active() const {
    return request_id.has_value() || stage.has_value() ||
           min_duration_s > 0;
  }
  bool operator==(const TraceFilter&) const = default;

  // Parses a comma-separated spec of "request=<id>", "stage=<name>"
  // (snake_case StageName), and "min-dur=<seconds>" terms, any subset.
  // Returns nullopt and sets *error on a malformed spec.
  [[nodiscard]] static std::optional<TraceFilter> Parse(
      const std::string& text, std::string* error);
};

// Applies the filter to every cell: each cell's spans are assembled,
// traces failing the filter are dropped, and the cell keeps only the
// surviving traces' spans (plus background spans matching a stage
// criterion). An inactive filter passes everything through untouched.
[[nodiscard]] std::vector<TraceCell> FilterTraceCells(
    std::vector<TraceCell> cells, const TraceFilter& filter);

struct ChromeTraceOptions {
  std::size_t slow_n = 5;      // slowest request traces per cell
  std::size_t exemplar_n = 5;  // nearest-to-median traces per cell
};

// Emits Chrome trace-event JSON ({"traceEvents":[...]}) for the
// selected request traces of every cell plus all background spans.
// Each cell is a trace process; each selected request and each
// background lane (replica / monitor instance) is a named thread.
void WriteChromeTrace(const std::vector<TraceCell>& cells,
                      const ChromeTraceOptions& options, std::ostream& out);

// WriteChromeTrace to `path`, replacing any existing file.
[[nodiscard]] Status WriteChromeTraceFile(const std::vector<TraceCell>& cells,
                                          const ChromeTraceOptions& options,
                                          const std::string& path);

}  // namespace actyp::profile
