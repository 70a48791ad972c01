#include "profile/metrics_exporter.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strings.hpp"

namespace actyp::profile {
namespace {

// Mirrors the report writer's number style: %.9g round-trips doubles
// closely enough for gauge values while staying human-readable.
std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

// Prometheus metric/label names: [a-zA-Z_][a-zA-Z0-9_]*. Anything else
// becomes '_'.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_';
    out += ok ? c : '_';
  }
  if (out.empty() ||
      std::isdigit(static_cast<unsigned char>(out.front())) != 0) {
    out.insert(out.begin(), '_');
  }
  return out;
}

// Prometheus label values escape backslash, quote, and newline.
std::string PromValue(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// One jsonl line per cell — shared by the file writer and
// MetricCellJson, which splices cells into other line formats.
void WriteJsonlCell(const MetricCell& cell, std::ostream& out) {
  out << "{\"scenario\":\"" << JsonEscape(cell.scenario)
      << "\",\"labels\":{";
  bool first = true;
  for (const auto& [key, value] : cell.labels) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(key) << "\":\"" << JsonEscape(value) << '"';
  }
  out << "},\"metrics\":{";
  first = true;
  for (const auto& [key, value] : cell.values) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(key) << "\":" << FormatNumber(value);
  }
  out << "}}\n";
}

// One prom sample line: actyp_<name>{scenario=...,labels...} value.
void WritePromSample(const MetricCell& cell, const std::string& metric,
                     double value, std::ostream& out) {
  out << metric << "{scenario=\"" << PromValue(cell.scenario) << '"';
  for (const auto& [label_key, label_value] : cell.labels) {
    out << ',' << PromName(label_key) << "=\"" << PromValue(label_value)
        << '"';
  }
  out << "} " << FormatNumber(value) << '\n';
}

}  // namespace

std::string MetricCellJson(const MetricCell& cell) {
  std::ostringstream out;
  WriteJsonlCell(cell, out);
  std::string text = out.str();
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

std::optional<MetricsExporter::Format> MetricsExporter::ParseFormat(
    std::string_view text) {
  if (text == "jsonl") return Format::kJsonl;
  if (text == "prom") return Format::kProm;
  return std::nullopt;
}

std::string_view MetricsExporter::FormatName(Format format) {
  return format == Format::kJsonl ? "jsonl" : "prom";
}

void MetricsExporter::Add(MetricCell cell) {
  cells_.push_back(std::move(cell));
}

void MetricsExporter::Write(std::ostream& out) const {
  if (format_ == Format::kJsonl) {
    WriteJsonl(out);
  } else {
    WriteProm(out);
  }
}

Status MetricsExporter::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Internal("cannot open metrics output file: " + path);
  }
  Write(out);
  out.flush();
  if (!out) {
    return Internal("short write to metrics output file: " + path);
  }
  return Status::Ok();
}

void MetricsExporter::WriteJsonl(std::ostream& out) const {
  for (const MetricCell& cell : cells_) WriteJsonlCell(cell, out);
}

void MetricsExporter::WriteProm(std::ostream& out) const {
  // Group samples under one # TYPE header per metric name, in first-
  // appearance order (the exposition format wants each metric's samples
  // contiguous).
  std::vector<std::string> metric_order;
  for (const MetricCell& cell : cells_) {
    for (const auto& [key, value] : cell.values) {
      (void)value;
      const std::string name = "actyp_" + PromName(key);
      bool seen = false;
      for (const auto& known : metric_order) {
        if (known == name) {
          seen = true;
          break;
        }
      }
      if (!seen) metric_order.push_back(name);
    }
  }
  for (const std::string& metric : metric_order) {
    out << "# TYPE " << metric << " gauge\n";
    for (const MetricCell& cell : cells_) {
      for (const auto& [key, value] : cell.values) {
        if ("actyp_" + PromName(key) != metric) continue;
        WritePromSample(cell, metric, value, out);
      }
    }
  }
  out << "# EOF\n";
}

}  // namespace actyp::profile
