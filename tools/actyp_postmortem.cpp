// actyp_postmortem: render a chaos post-mortem dump (the .jsonl file
// actyp_chaos writes next to a repro bundle) as an annotated timeline
// and name the first causally-implicated event.
//
//   actyp_postmortem chaos_postmortem_seed11.jsonl
//
// The dump is line-oriented typed JSON (see src/obs/postmortem.hpp):
// one meta line, one fault line per plan event, one telemetry line per
// gauge sample, one flight line per recorded event. The tool walks the
// gauge series for the first excursion — completed throughput going
// flat while clients are still in flight, or a failure-count jump —
// and blames the latest fault strike at or before it.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"

namespace {

using actyp::JsonNumber;
using actyp::JsonString;

struct Sample {
  double t_s = 0;
  double completed = 0;
  double failures = 0;
  double inflight = 0;
  double lost = 0;
};

struct Flight {
  double t = 0;
  std::string kind;
  std::string node;
  std::string detail;
};

int Usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: actyp_postmortem DUMP.jsonl\n"
               "\n"
               "Renders a chaos post-mortem dump as an annotated\n"
               "timeline and names the first causally-implicated\n"
               "event (the latest fault strike at or before the first\n"
               "telemetry excursion).\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      return Usage(0);
    }
    if (!path.empty()) {
      std::fprintf(stderr, "actyp_postmortem: unexpected argument '%s'\n",
                   argv[i]);
      return Usage(2);
    }
    path = argv[i];
  }
  if (path.empty()) return Usage(2);

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "actyp_postmortem: cannot open '%s'\n",
                 path.c_str());
    return 1;
  }

  std::string seed = "?";
  std::string regime;
  std::vector<std::string> violations;
  std::vector<std::string> fault_events;
  std::vector<Sample> samples;
  std::vector<Flight> faults;  // fault_strike / fault_recover only
  std::size_t flight_total = 0;
  double flight_first = 0, flight_last = 0;

  std::string line;
  while (std::getline(in, line)) {
    const auto type = JsonString(line, "type");
    if (!type) continue;
    if (*type == "meta") {
      if (const auto value = JsonNumber(line, "seed")) {
        seed = std::to_string(static_cast<long long>(*value));
      }
      regime = JsonString(line, "regime").value_or("");
      // The violations array holds plain strings: pull each quoted
      // element between the brackets.
      const auto open = line.find("\"violations\":[");
      if (open != std::string::npos) {
        std::size_t at = open + std::strlen("\"violations\":[");
        while (at < line.size() && line[at] != ']') {
          if (line[at] == '"') {
            std::string item;
            for (++at; at < line.size() && line[at] != '"'; ++at) {
              if (line[at] == '\\' && at + 1 < line.size()) ++at;
              item += line[at];
            }
            violations.push_back(item);
          }
          ++at;
        }
      }
    } else if (*type == "fault") {
      if (const auto event = JsonString(line, "event")) {
        fault_events.push_back(*event);
      }
    } else if (*type == "telemetry") {
      Sample sample;
      sample.t_s = JsonNumber(line, "t_s").value_or(0);
      sample.completed = JsonNumber(line, "completed").value_or(0);
      sample.failures = JsonNumber(line, "failures").value_or(0);
      sample.inflight = JsonNumber(line, "inflight_clients").value_or(0);
      sample.lost = JsonNumber(line, "lost_messages").value_or(0);
      samples.push_back(sample);
    } else if (*type == "flight") {
      const double t = JsonNumber(line, "t").value_or(0);
      if (flight_total == 0) flight_first = t;
      flight_last = t;
      ++flight_total;
      const auto kind = JsonString(line, "kind").value_or("");
      if (kind == "fault_strike" || kind == "fault_recover") {
        Flight event;
        event.t = t;
        event.kind = kind;
        event.node = JsonString(line, "node").value_or("");
        event.detail = JsonString(line, "detail").value_or("");
        faults.push_back(event);
      }
    }
  }

  std::printf("post-mortem: seed=%s\n", seed.c_str());
  if (!regime.empty()) std::printf("regime: %s\n", regime.c_str());
  std::printf("violations:\n");
  for (const auto& violation : violations) {
    std::printf("  - %s\n", violation.c_str());
  }
  if (violations.empty()) std::printf("  (none recorded)\n");
  std::printf("fault plan:\n");
  for (const auto& event : fault_events) {
    std::printf("  - %s\n", event.c_str());
  }
  std::printf("flight window: %zu event(s), t=%.6gs .. %.6gs\n",
              flight_total, flight_first, flight_last);

  // First excursion: the earliest sample where completed throughput
  // goes flat with clients still in flight, or failures jump.
  std::optional<std::size_t> excursion;
  std::string excursion_why;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const Sample& prev = samples[i - 1];
    const Sample& cur = samples[i];
    if (cur.failures > prev.failures) {
      excursion = i;
      excursion_why = "failures jumped " +
                      std::to_string(static_cast<long long>(prev.failures)) +
                      " -> " +
                      std::to_string(static_cast<long long>(cur.failures));
      break;
    }
    if (cur.completed <= prev.completed && cur.inflight > 0) {
      excursion = i;
      excursion_why =
          "completed stalled at " +
          std::to_string(static_cast<long long>(cur.completed)) + " with " +
          std::to_string(static_cast<long long>(cur.inflight)) +
          " client(s) in flight";
      break;
    }
  }

  std::printf("timeline:\n");
  std::size_t next_fault = 0;
  const double excursion_t = excursion ? samples[*excursion].t_s : 0;
  auto print_faults_until = [&](double t) {
    for (; next_fault < faults.size() && faults[next_fault].t <= t;
         ++next_fault) {
      const Flight& event = faults[next_fault];
      std::printf("  t=%.6gs %s %s\n", event.t, event.kind.c_str(),
                  event.detail.c_str());
    }
  };
  if (excursion) {
    print_faults_until(excursion_t);
    std::printf("  t=%.6gs telemetry excursion: %s\n", excursion_t,
                excursion_why.c_str());
  }
  print_faults_until(flight_last + 1.0);
  if (faults.empty() && !excursion) std::printf("  (no events)\n");

  // Blame: the latest strike at or before the excursion; with no
  // excursion (or none before it), the first strike on record.
  const Flight* implicated = nullptr;
  for (const auto& event : faults) {
    if (event.kind != "fault_strike") continue;
    if (implicated == nullptr) {
      implicated = &event;
      continue;
    }
    if (excursion && event.t <= excursion_t) implicated = &event;
  }
  if (implicated != nullptr) {
    std::printf("first implicated event: t=%.6gs %s node=%s %s\n",
                implicated->t, implicated->kind.c_str(),
                implicated->node.c_str(), implicated->detail.c_str());
  } else {
    std::printf("first implicated event: (no fault strike recorded)\n");
  }
  return 0;
}
