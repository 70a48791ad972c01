// Ablation: query-language microbenchmarks. The pipeline's per-stage
// costs assume parsing, signature construction, and decomposition are
// microsecond-scale; this scenario verifies that and tracks regressions
// with simple wall-clock timing loops (self-calibrating iteration
// counts, no external benchmark dependency). Deliberately ignores
// --jobs: concurrent cells would contend for cores and corrupt the
// timings.
#include <chrono>
#include <string>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "net/message.hpp"
#include "query/parser.hpp"

namespace actyp {
namespace {

constexpr const char* kPaperQuery =
    "punch.rsrc.arch = sun\n"
    "punch.rsrc.memory = >=10\n"
    "punch.rsrc.license = tsuprem4\n"
    "punch.rsrc.domain = purdue\n"
    "punch.appl.expectedcpuuse = 1000\n"
    "punch.user.login = kapadia\n"
    "punch.user.accessgroup = ece\n";

// Keeps `value` observable so the timed bodies are not optimized away.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "g"(value) : "memory");
}

// Times `op` with enough iterations to pass a minimum wall-clock
// budget; returns {ns_per_op, iterations}. Template on the callable so
// the timed body inlines — a std::function indirection would add
// non-inlinable dispatch overhead comparable to the cheapest ops.
template <typename Op>
std::pair<double, double> TimeOp(Op&& op, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  std::uint64_t iterations = 64;
  for (;;) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i) op();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= min_seconds || iterations >= (1ULL << 24)) {
      return {elapsed * 1e9 / static_cast<double>(iterations),
              static_cast<double>(iterations)};
    }
    iterations *= 4;
  }
}

ScenarioReport RunAblQueryMicro(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.title = "Ablation — query-language microbenchmarks";

  // --time-scale shrinks/stretches the per-op timing budget.
  const double min_seconds = 0.05 * options.time_scale;

  const auto parsed = query::Parser::ParseBasic(kPaperQuery);
  const std::string composite_text =
      "punch.rsrc.arch = sun|hp|sgi|linux\n"
      "punch.rsrc.memory = >=10|>=100\n"
      "punch.user.login = kapadia\n";
  net::Message message{"query"};
  message.SetHeader("reply-to", "client1");
  message.SetHeader("request-id", "123456");
  message.body = kPaperQuery;
  const auto attrs =
      [](const std::string& name) -> std::optional<std::string> {
    if (name == "arch") return "sun";
    if (name == "memory") return "512";
    if (name == "license") return "tsuprem4";
    if (name == "domain") return "purdue";
    return std::nullopt;
  };

  const auto measure = [&](const char* name, auto&& op) {
    const auto [ns_per_op, iterations] = TimeOp(op, min_seconds);
    ScenarioCell cell;
    cell.labels.emplace_back("op", name);
    cell.metrics.emplace_back("ns_per_op", ns_per_op);
    cell.metrics.emplace_back("iterations", iterations);
    report.cells.push_back(std::move(cell));
  };
  measure("parse_basic",
          [&] { DoNotOptimize(query::Parser::ParseBasic(kPaperQuery)); });
  measure("pool_signature", [&] { DoNotOptimize(parsed->PoolName()); });
  measure("decompose_composite",
          [&] { DoNotOptimize(query::Parser::Parse(composite_text)); });
  measure("query_to_text", [&] { DoNotOptimize(parsed->ToText()); });
  measure("match", [&] { DoNotOptimize(parsed->Matches(attrs)); });
  measure("message_encode_decode",
          [&] { DoNotOptimize(net::Message::Decode(message.Encode())); });
  measure("glob_match", [&] {
    DoNotOptimize(GlobMatch("sparc*ultra-?", "sparc-iii-ultra-5"));
  });

  report.note =
      "shape check: every operation is microsecond-scale or below, "
      "consistent with the per-stage costs the pipeline's cost model "
      "assumes.";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "abl_query_micro",
    "wall-clock microbenchmarks of parse/signature/decompose/match",
    RunAblQueryMicro, /*wall_clock=*/true);

}  // namespace
}  // namespace actyp
