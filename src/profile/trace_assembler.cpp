#include "profile/trace_assembler.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

#include "common/strings.hpp"

namespace actyp::profile {
namespace {

// Slowness rank: longer traces first, request id breaking ties.
bool Slower(const RequestTrace& a, const RequestTrace& b) {
  const SimDuration da = a.end - a.start;
  const SimDuration db = b.end - b.start;
  if (da != db) return da > db;
  return a.request_id < b.request_id;
}

void FinishTrace(RequestTrace* trace) {
  std::sort(trace->spans.begin(), trace->spans.end());
  trace->start = trace->spans.front().t_enter;
  trace->end = trace->spans.front().t_exit;
  for (const SpanRecord& span : trace->spans) {
    trace->start = std::min(trace->start, span.t_enter);
    trace->end = std::max(trace->end, span.t_exit);
    trace->stage_total[static_cast<std::size_t>(span.stage)] +=
        span.t_exit - span.t_enter;
  }
  trace->duration_s = ToSeconds(trace->end - trace->start);

  // Critical-path attribution over the non-umbrella stages; ties go to
  // the earlier pipeline stage so the answer is deterministic.
  SimDuration attributed = 0;
  std::size_t top = 0;
  SimDuration top_total = -1;
  for (std::size_t i = 1; i < kStageCount; ++i) {
    attributed += trace->stage_total[i];
    if (trace->stage_total[i] > top_total) {
      top_total = trace->stage_total[i];
      top = i;
    }
  }
  if (attributed > 0) {
    trace->top_stage = static_cast<Stage>(top);
    trace->top_share = ToSeconds(top_total) / ToSeconds(attributed);
  } else {
    trace->top_stage = Stage::kClientIssue;
    trace->top_share = 0;
  }
}

}  // namespace

AssembledTraces TraceAssembler::Assemble(
    const std::vector<SpanRecord>& spans) {
  AssembledTraces out;
  std::vector<SpanRecord> request_spans;
  request_spans.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    if (IsBackgroundId(span.request_id)) {
      out.background.push_back(span);
    } else {
      request_spans.push_back(span);
    }
  }
  std::sort(out.background.begin(), out.background.end());

  // Group on request_id by sorting, then close a trace at each id edge.
  std::sort(request_spans.begin(), request_spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.request_id != b.request_id) {
                return a.request_id < b.request_id;
              }
              return a < b;
            });
  for (const SpanRecord& span : request_spans) {
    if (out.requests.empty() ||
        out.requests.back().request_id != span.request_id) {
      out.requests.emplace_back();
      out.requests.back().request_id = span.request_id;
    }
    out.requests.back().spans.push_back(span);
  }
  for (RequestTrace& trace : out.requests) FinishTrace(&trace);
  return out;
}

TailReport TraceAssembler::Tail(const std::vector<RequestTrace>& traces,
                                double slow_fraction) {
  TailReport report;
  report.trace_count = traces.size();
  if (traces.empty()) return report;
  slow_fraction = std::clamp(slow_fraction, 0.0, 1.0);

  std::vector<std::size_t> rank(traces.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
    return Slower(traces[a], traces[b]);
  });

  const auto slow = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(slow_fraction * static_cast<double>(traces.size()))));
  report.slow_count = std::min(slow, traces.size());

  std::array<std::uint64_t, kStageCount> top_votes{};
  std::array<SimDuration, kStageCount> tail_total{};
  for (std::size_t i = 0; i < report.slow_count; ++i) {
    const RequestTrace& trace = traces[rank[i]];
    ++top_votes[static_cast<std::size_t>(trace.top_stage)];
    for (std::size_t s = 1; s < kStageCount; ++s) {
      tail_total[s] += trace.stage_total[s];
    }
  }
  std::size_t top = 0;
  for (std::size_t s = 1; s < kStageCount; ++s) {
    if (top_votes[s] > top_votes[top]) top = s;
  }
  report.slow_top_stage = static_cast<int>(top);

  const SimDuration attributed =
      std::accumulate(tail_total.begin(), tail_total.end(), SimDuration{0});
  if (attributed > 0) {
    for (std::size_t s = 1; s < kStageCount; ++s) {
      report.tail_share[s] =
          ToSeconds(tail_total[s]) / ToSeconds(attributed);
    }
  }
  return report;
}

// --- Chrome trace-event writer ---------------------------------------------

namespace {

class EventWriter {
 public:
  explicit EventWriter(std::ostream& out) : out_(out) {
    out_ << "{\"traceEvents\":[\n";
  }

  std::ostream& Begin() {
    if (!first_) out_ << ",\n";
    first_ = false;
    return out_;
  }

  void Finish() { out_ << "\n],\"displayTimeUnit\":\"ms\"}\n"; }

 private:
  std::ostream& out_;
  bool first_ = true;
};

void WriteMetadata(EventWriter* events, const char* kind, int pid, int tid,
                   const std::string& name) {
  auto& out = events->Begin();
  out << "{\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) out << ",\"tid\":" << tid;
  out << ",\"name\":\"" << kind << "\",\"args\":{\"name\":\"" << name
      << "\"}}";
}

void WriteSpan(EventWriter* events, int pid, int tid,
               const SpanRecord& span) {
  events->Begin() << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
                  << ",\"ts\":" << span.t_enter
                  << ",\"dur\":" << span.t_exit - span.t_enter
                  << ",\"name\":\"" << StageName(span.stage)
                  << "\",\"args\":{\"request_id\":\"" << span.request_id
                  << "\"}}";
}

std::string TraceLaneName(const char* kind, const RequestTrace& trace) {
  return std::string(kind) + " req " + std::to_string(trace.request_id) +
         " (" + std::to_string(trace.end - trace.start) + " us)";
}

}  // namespace

void WriteChromeTrace(const std::vector<TraceCell>& cells,
                      const ChromeTraceOptions& options, std::ostream& out) {
  EventWriter events(out);
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const TraceCell& cell = cells[ci];
    const int pid = static_cast<int>(ci) + 1;
    WriteMetadata(&events, "process_name", pid, -1,
                  "cell " + std::to_string(ci) + " seed " +
                      std::to_string(cell.seed));

    const AssembledTraces assembled = TraceAssembler::Assemble(cell.items);
    const std::vector<RequestTrace>& traces = assembled.requests;
    std::vector<std::size_t> rank(traces.size());
    std::iota(rank.begin(), rank.end(), 0);
    std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
      return Slower(traces[a], traces[b]);
    });

    const std::size_t slow_n = std::min(options.slow_n, traces.size());
    std::vector<char> selected(traces.size(), 0);
    for (std::size_t i = 0; i < slow_n; ++i) selected[rank[i]] = 1;

    // Exemplars: the traces nearest the median duration that are not
    // already in the slow set — "what a normal request looks like".
    std::vector<std::size_t> exemplars;
    if (!traces.empty() && options.exemplar_n > 0) {
      const RequestTrace& median = traces[rank[rank.size() / 2]];
      const SimDuration median_duration = median.end - median.start;
      std::vector<std::size_t> candidates;
      for (std::size_t i = 0; i < traces.size(); ++i) {
        if (!selected[i]) candidates.push_back(i);
      }
      std::sort(candidates.begin(), candidates.end(),
                [&](std::size_t a, std::size_t b) {
                  const SimDuration da = traces[a].end - traces[a].start;
                  const SimDuration db = traces[b].end - traces[b].start;
                  const SimDuration ea = da > median_duration
                                             ? da - median_duration
                                             : median_duration - da;
                  const SimDuration eb = db > median_duration
                                             ? db - median_duration
                                             : median_duration - db;
                  if (ea != eb) return ea < eb;
                  return traces[a].request_id < traces[b].request_id;
                });
      for (std::size_t i = 0;
           i < candidates.size() && exemplars.size() < options.exemplar_n;
           ++i) {
        exemplars.push_back(candidates[i]);
      }
      // Present exemplars in request order, not distance order.
      std::sort(exemplars.begin(), exemplars.end(),
                [&](std::size_t a, std::size_t b) {
                  return traces[a].request_id < traces[b].request_id;
                });
    }

    int tid = 1;
    for (std::size_t i = 0; i < slow_n; ++i) {
      const RequestTrace& trace = traces[rank[i]];
      WriteMetadata(&events, "thread_name", pid, tid,
                    TraceLaneName("slow", trace));
      for (const SpanRecord& span : trace.spans) {
        WriteSpan(&events, pid, tid, span);
      }
      ++tid;
    }
    for (const std::size_t index : exemplars) {
      const RequestTrace& trace = traces[index];
      WriteMetadata(&events, "thread_name", pid, tid,
                    TraceLaneName("exemplar", trace));
      for (const SpanRecord& span : trace.spans) {
        WriteSpan(&events, pid, tid, span);
      }
      ++tid;
    }

    // Background lanes: one per (stage, instance), i.e. per distinct
    // BackgroundId, in id order — replica lanes then monitor lanes.
    std::uint64_t lane_id = 0;
    bool lane_open = false;
    std::vector<SpanRecord> background = assembled.background;
    std::sort(background.begin(), background.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.request_id != b.request_id) {
                  return a.request_id < b.request_id;
                }
                return a < b;
              });
    for (const SpanRecord& span : background) {
      if (!lane_open || span.request_id != lane_id) {
        if (lane_open) ++tid;
        lane_open = true;
        lane_id = span.request_id;
        const auto stage = static_cast<Stage>((span.request_id >> 56) & 0x7f);
        WriteMetadata(&events, "thread_name", pid, tid,
                      std::string(StageName(stage)) + " " +
                          std::to_string(BackgroundInstance(span.request_id)));
      }
      WriteSpan(&events, pid, tid, span);
    }
  }
  events.Finish();
}

std::optional<TraceFilter> TraceFilter::Parse(const std::string& text,
                                              std::string* error) {
  TraceFilter filter;
  for (const std::string& term : SplitSkipEmpty(text, ',')) {
    const std::string trimmed = Trim(term);
    const std::size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      *error = "term '" + trimmed + "' is not key=value";
      return std::nullopt;
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key == "request") {
      const auto parsed = ParseInt(value);
      if (!parsed || *parsed < 0) {
        *error = "bad request id '" + value + "'";
        return std::nullopt;
      }
      filter.request_id = static_cast<std::uint64_t>(*parsed);
    } else if (key == "stage") {
      const auto stage = StageFromName(value);
      if (!stage) {
        *error = "unknown stage '" + value + "'";
        return std::nullopt;
      }
      filter.stage = *stage;
    } else if (key == "min-dur") {
      const auto parsed = ParseDouble(value);
      if (!parsed || !(*parsed >= 0)) {
        *error = "bad duration '" + value + "'";
        return std::nullopt;
      }
      filter.min_duration_s = *parsed;
    } else {
      *error = "unknown key '" + key +
               "' (expected request, stage, or min-dur)";
      return std::nullopt;
    }
  }
  return filter;
}

std::vector<TraceCell> FilterTraceCells(std::vector<TraceCell> cells,
                                        const TraceFilter& filter) {
  if (!filter.active()) return cells;
  for (TraceCell& cell : cells) {
    const AssembledTraces assembled = TraceAssembler::Assemble(cell.items);
    std::vector<SpanRecord> kept;
    for (const RequestTrace& trace : assembled.requests) {
      if (filter.request_id && trace.request_id != *filter.request_id) {
        continue;
      }
      if (filter.min_duration_s > 0 &&
          trace.duration_s < filter.min_duration_s) {
        continue;
      }
      if (filter.stage) {
        const bool has_stage = std::any_of(
            trace.spans.begin(), trace.spans.end(),
            [&](const SpanRecord& s) { return s.stage == *filter.stage; });
        if (!has_stage) continue;
      }
      kept.insert(kept.end(), trace.spans.begin(), trace.spans.end());
    }
    if (filter.stage) {
      for (const SpanRecord& span : assembled.background) {
        if (span.stage == *filter.stage) kept.push_back(span);
      }
    }
    cell.items = std::move(kept);
  }
  return cells;
}

Status WriteChromeTraceFile(const std::vector<TraceCell>& cells,
                            const ChromeTraceOptions& options,
                            const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Internal("cannot open trace output file: " + path);
  }
  WriteChromeTrace(cells, options, out);
  out.flush();
  if (!out) {
    return Internal("short write to trace output file: " + path);
  }
  return Status::Ok();
}

}  // namespace actyp::profile
