// MetricsExporter: serializes finished scenario metrics for external
// tooling, in either of two line-oriented formats:
//
//   jsonl — one JSON object per report cell:
//     {"scenario":"fig6_pool_size","labels":{"machines":"400",...},
//      "metrics":{"mean_s":0.0123,...,"pool_select_p95_s":0.0041}}
//
//   prom — Prometheus text exposition (gauges), metric names prefixed
//   with "actyp_" and cell identity carried as labels:
//     # TYPE actyp_mean_s gauge
//     actyp_mean_s{scenario="fig6_pool_size",machines="400"} 0.0123
//
// The exporter is deliberately independent of the scenario layer: it
// consumes flat MetricCell records, and the driver (tools/actyp_sim)
// adapts ScenarioReport cells into them. That keeps this file reusable
// from benches and tests without dragging the registry in.
#pragma once

#include <compare>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace actyp::profile {

// One exportable cell: a scenario name, ordered identity labels
// (string-valued; numeric dims pre-formatted by the caller), and
// ordered numeric metrics.
struct MetricCell {
  std::string scenario;
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, double>> values;

  // Member-wise order: how a TelemetrySink orders two cells that share
  // a seed.
  friend auto operator<=>(const MetricCell&, const MetricCell&) = default;
};

// One cell as the exporter's jsonl line (no trailing newline) — for
// callers that splice cells into other line formats (post-mortems).
[[nodiscard]] std::string MetricCellJson(const MetricCell& cell);

class MetricsExporter {
 public:
  enum class Format { kJsonl, kProm };

  // Parses "jsonl" / "prom" (the --metrics-format values).
  static std::optional<Format> ParseFormat(std::string_view text);
  static std::string_view FormatName(Format format);

  explicit MetricsExporter(Format format) : format_(format) {}

  void Add(MetricCell cell);
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }

  void Write(std::ostream& out) const;
  // Writes to `path`, replacing any existing file.
  [[nodiscard]] Status WriteFile(const std::string& path) const;

 private:
  void WriteJsonl(std::ostream& out) const;
  void WriteProm(std::ostream& out) const;

  Format format_;
  std::vector<MetricCell> cells_;
};

// MetricsStreamer: incremental counterpart of MetricsExporter. Where
// the exporter buffers a finished run and writes once, the streamer
// appends one cell at a time — flushed immediately — so a periodic
// sim-clock hook (--metrics-interval) makes a long run observable in
// flight (`tail -f` the file). Thread-safe: sweep cells running on
// ThreadPool workers interleave whole lines, never partial ones.
//
// jsonl streams exactly the exporter's per-cell lines. prom emits each
// metric's "# TYPE" header the first time that metric is seen (samples
// are not regrouped — this is a stream), and Close() terminates the
// exposition with "# EOF".
class MetricsStreamer {
 public:
  using Format = MetricsExporter::Format;

  explicit MetricsStreamer(Format format) : format_(format) {}

  // Opens `path` for streaming, replacing any existing file.
  [[nodiscard]] Status Open(const std::string& path);
  // Streams into a caller-owned ostream instead (tests, stdout).
  void Attach(std::ostream* out);

  // Appends one cell and flushes. No-op before Open/Attach.
  void WriteCell(const MetricCell& cell);

  // Terminates the stream (prom: "# EOF") and detaches. Safe to call
  // twice; the destructor calls it.
  void Close();
  ~MetricsStreamer() { Close(); }

  [[nodiscard]] std::size_t cells_written() const;

 private:
  Format format_;
  mutable std::mutex mu_;
  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_ = nullptr;
  std::vector<std::string> prom_typed_;  // metric names already typed
  std::size_t cells_written_ = 0;
};

}  // namespace actyp::profile
