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

}  // namespace actyp::profile
