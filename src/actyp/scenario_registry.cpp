#include "actyp/scenario_registry.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/strings.hpp"

namespace actyp {
namespace {

// JSON has no NaN/Infinity literals; emit null for non-finite values
// (e.g. a mean over zero completed queries).
void WriteJsonNumber(double value, std::ostream& out) {
  if (!std::isfinite(value)) {
    out << "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  out << buffer;
}

}  // namespace

ScenarioRegistry& ScenarioRegistry::Instance() {
  static ScenarioRegistry* registry = new ScenarioRegistry;
  return *registry;
}

void ScenarioRegistry::Register(ScenarioInfo info) {
  if (info.name.empty() || !info.run) {
    throw std::invalid_argument("scenario registration needs a name and fn");
  }
  if (!scenarios_.emplace(info.name, info).second) {
    throw std::invalid_argument("duplicate scenario: " + info.name);
  }
}

const ScenarioInfo* ScenarioRegistry::Find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<const ScenarioInfo*> ScenarioRegistry::List() const {
  std::vector<const ScenarioInfo*> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, info] : scenarios_) out.push_back(&info);
  return out;
}

ScenarioRegistrar::ScenarioRegistrar(std::string name, std::string summary,
                                     ScenarioFn fn, bool wall_clock) {
  ScenarioFn run = [name, fn = std::move(fn)](
                       const ScenarioRunOptions& options) {
    ScenarioReport report = fn(options);
    report.scenario = name;
    return report;
  };
  ScenarioRegistry::Instance().Register(
      {std::move(name), std::move(summary), std::move(run), wall_clock});
}

namespace {

std::string CellSignature(const ScenarioCell& cell) {
  std::string signature;
  for (const auto& [name, value] : cell.labels) signature += name + "|";
  for (const auto& [name, value] : cell.dims) signature += name + "|";
  for (const auto& [name, value] : cell.metrics) signature += name + "|";
  return signature;
}

void WriteTableHeader(const ScenarioCell& cell, std::ostream& out) {
  char buffer[64];
  for (const auto& [name, value] : cell.labels) {
    std::snprintf(buffer, sizeof(buffer), "%18s", name.c_str());
    out << buffer;
  }
  for (const auto& [name, value] : cell.dims) {
    std::snprintf(buffer, sizeof(buffer), "%14s", name.c_str());
    out << buffer;
  }
  for (const auto& [name, value] : cell.metrics) {
    std::snprintf(buffer, sizeof(buffer), "%14s", name.c_str());
    out << buffer;
  }
  out << "\n";
}

}  // namespace

void WriteReportTable(const ScenarioReport& report, std::ostream& out) {
  out << "\n== " << report.title << " ==\n";
  // Reprint the header whenever the cell shape changes (e.g. fig9's
  // histogram rows followed by a summary row).
  std::string last_signature;
  char buffer[64];
  for (const auto& cell : report.cells) {
    const std::string signature = CellSignature(cell);
    if (signature != last_signature) {
      WriteTableHeader(cell, out);
      last_signature = signature;
    }
    for (const auto& [name, value] : cell.labels) {
      std::snprintf(buffer, sizeof(buffer), "%18s", value.c_str());
      out << buffer;
    }
    for (const auto& [name, value] : cell.dims) {
      std::snprintf(buffer, sizeof(buffer), "%14.6g", value);
      out << buffer;
    }
    for (const auto& [name, value] : cell.metrics) {
      std::snprintf(buffer, sizeof(buffer), "%14.6g", value);
      out << buffer;
    }
    out << "\n";
  }
  if (!report.note.empty()) out << "\n" << report.note << "\n";
}

void WriteReportJson(const ScenarioReport& report, std::ostream& out) {
  out << "{\"scenario\":\"" << JsonEscape(report.scenario) << "\","
      << "\"title\":\"" << JsonEscape(report.title) << "\",\"cells\":[";
  bool first_cell = true;
  for (const auto& cell : report.cells) {
    if (!first_cell) out << ",";
    first_cell = false;
    out << "{";
    bool first_field = true;
    for (const auto& [name, value] : cell.labels) {
      if (!first_field) out << ",";
      first_field = false;
      out << "\"" << JsonEscape(name) << "\":\"" << JsonEscape(value) << "\"";
    }
    for (const auto& [name, value] : cell.dims) {
      if (!first_field) out << ",";
      first_field = false;
      out << "\"" << JsonEscape(name) << "\":";
      WriteJsonNumber(value, out);
    }
    for (const auto& [name, value] : cell.metrics) {
      if (!first_field) out << ",";
      first_field = false;
      out << "\"" << JsonEscape(name) << "\":";
      WriteJsonNumber(value, out);
    }
    out << "}";
  }
  out << "],\"note\":\"" << JsonEscape(report.note) << "\"}\n";
}

}  // namespace actyp
