// actyp_tracediff: compare two --trace-out Chrome trace files and
// report per-stage latency deltas for the request ids present in both.
//
//   actyp_tracediff base.json candidate.json [--top N]
//
// Fixed-seed runs assign the same request ids to the same logical
// requests, so diffing two traces (e.g. before/after a scheduler
// change, or loss=0 vs loss=0.05) attributes an end-to-end latency
// shift to the stage that moved. Spans are complete events ("ph":"X")
// with the duration in microseconds and the request id in args.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/strings.hpp"

namespace {

struct RequestStages {
  std::map<std::string, double> stage_us;  // stage name -> summed dur
  double total_us = 0;
};

using TraceIndex = std::map<std::string, RequestStages>;

using actyp::JsonNumber;
using actyp::JsonString;

bool LoadTrace(const std::string& path, TraceIndex* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    // One span per line: the writer emits each traceEvents element on
    // its own line, so splitting on newlines never cuts a span.
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const auto id = JsonString(line, "request_id");
    const auto name = JsonString(line, "name");
    const auto dur = JsonNumber(line, "dur");
    if (!id || !name || !dur) continue;
    auto& request = (*out)[*id];
    request.stage_us[*name] += *dur;
    request.total_us += *dur;
  }
  return true;
}

int Usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: actyp_tracediff BASE.json CANDIDATE.json [--top N]\n"
               "\n"
               "Diffs per-stage span time for the request ids present\n"
               "in both Chrome trace files (--trace-out output), and\n"
               "lists the N requests that moved most (default 10).\n");
  return code;
}

std::string FormatUs(double us) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.0f", us);
  return buffer;
}

std::string FormatDelta(double us) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%+.0f", us);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::size_t top = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      return Usage(0);
    } else if (std::strcmp(argv[i], "--top") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "actyp_tracediff: --top requires a value\n");
        return Usage(2);
      }
      char* end = nullptr;
      const long value = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || value < 1) {
        std::fprintf(stderr, "actyp_tracediff: invalid value '%s' for "
                     "--top\n", argv[i]);
        return Usage(2);
      }
      top = static_cast<std::size_t>(value);
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.size() != 2) return Usage(2);

  TraceIndex base, candidate;
  if (!LoadTrace(paths[0], &base)) {
    std::fprintf(stderr, "actyp_tracediff: cannot open '%s'\n",
                 paths[0].c_str());
    return 1;
  }
  if (!LoadTrace(paths[1], &candidate)) {
    std::fprintf(stderr, "actyp_tracediff: cannot open '%s'\n",
                 paths[1].c_str());
    return 1;
  }

  // Join on request id; per-stage totals accumulate over the join.
  struct RequestDelta {
    std::string id;
    double base_us = 0;
    double candidate_us = 0;
    double delta_us = 0;
  };
  std::vector<RequestDelta> joined;
  std::map<std::string, std::pair<double, double>> stage_totals;
  std::size_t base_only = 0;
  for (const auto& [id, base_request] : base) {
    const auto it = candidate.find(id);
    if (it == candidate.end()) {
      ++base_only;
      continue;
    }
    RequestDelta delta;
    delta.id = id;
    delta.base_us = base_request.total_us;
    delta.candidate_us = it->second.total_us;
    delta.delta_us = delta.candidate_us - delta.base_us;
    joined.push_back(delta);
    for (const auto& [stage, us] : base_request.stage_us) {
      stage_totals[stage].first += us;
    }
    for (const auto& [stage, us] : it->second.stage_us) {
      stage_totals[stage].second += us;
    }
  }
  const std::size_t candidate_only = candidate.size() - joined.size();

  std::printf("trace diff: %s vs %s\n", paths[0].c_str(),
              paths[1].c_str());
  std::printf("requests: %zu common, %zu base-only, %zu candidate-only\n",
              joined.size(), base_only, candidate_only);
  if (joined.empty()) {
    std::printf("no common request ids; nothing to diff\n");
    return 0;
  }

  std::printf("per-stage span time over common requests (us):\n");
  std::printf("  %-24s %12s %12s %12s\n", "stage", "base", "candidate",
              "delta");
  for (const auto& [stage, totals] : stage_totals) {
    std::printf("  %-24s %12s %12s %12s\n", stage.c_str(),
                FormatUs(totals.first).c_str(),
                FormatUs(totals.second).c_str(),
                FormatDelta(totals.second - totals.first).c_str());
  }

  std::sort(joined.begin(), joined.end(),
            [](const RequestDelta& a, const RequestDelta& b) {
              const double da = std::abs(a.delta_us);
              const double db = std::abs(b.delta_us);
              if (da != db) return da > db;
              return a.id < b.id;
            });
  std::printf("top %zu request(s) by |delta|:\n",
              std::min(top, joined.size()));
  for (std::size_t i = 0; i < joined.size() && i < top; ++i) {
    const RequestDelta& request = joined[i];
    std::printf("  req %s: base=%sus candidate=%sus delta=%sus\n",
                request.id.c_str(), FormatUs(request.base_us).c_str(),
                FormatUs(request.candidate_us).c_str(),
                FormatDelta(request.delta_us).c_str());
    // Name the stages that moved within this request.
    const auto& base_request = base[request.id];
    const auto& cand_request = candidate[request.id];
    std::map<std::string, double> deltas;
    for (const auto& [stage, us] : base_request.stage_us) {
      deltas[stage] -= us;
    }
    for (const auto& [stage, us] : cand_request.stage_us) {
      deltas[stage] += us;
    }
    for (const auto& [stage, delta] : deltas) {
      if (delta == 0) continue;
      std::printf("    %-24s %sus\n", stage.c_str(),
                  FormatDelta(delta).c_str());
    }
  }
  return 0;
}
