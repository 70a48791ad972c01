#include "obs/postmortem.hpp"

#include <fstream>

#include "common/strings.hpp"

namespace actyp::obs {
namespace {

// Splices "type":<type> in as the first member of an existing
// single-line JSON object.
std::string WithType(const char* type, const std::string& object_json) {
  std::string out = "{\"type\":\"";
  out += type;
  out += "\",";
  out += object_json.substr(1);
  return out;
}

}  // namespace

void WritePostmortem(const PostmortemBundle& bundle, std::ostream& out) {
  out << "{\"type\":\"meta\",\"seed\":" << bundle.seed << ",\"regime\":\""
      << JsonEscape(bundle.regime) << "\",\"violations\":[";
  for (std::size_t i = 0; i < bundle.violations.size(); ++i) {
    if (i != 0) out << ',';
    out << '"' << JsonEscape(bundle.violations[i]) << '"';
  }
  out << "]}\n";
  for (const std::string& event : bundle.fault_events) {
    out << "{\"type\":\"fault\",\"event\":\"" << JsonEscape(event)
        << "\"}\n";
  }
  for (const profile::MetricCell& sample : bundle.telemetry) {
    out << WithType("telemetry", profile::MetricCellJson(sample)) << '\n';
  }
  for (const FlightEvent& event : bundle.flight) {
    out << WithType("flight", FlightEventJson(event)) << '\n';
  }
}

Status WritePostmortemFile(const PostmortemBundle& bundle,
                           const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Unavailable("cannot open '" + path + "' for writing");
  WritePostmortem(bundle, out);
  out.flush();
  if (!out) return Unavailable("write to '" + path + "' failed");
  return Status::Ok();
}

}  // namespace actyp::obs
