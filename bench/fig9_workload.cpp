// Figure 9: distribution of measured CPU times for 236,222 PUNCH runs.
// The paper's histogram is truncated at 1,000 s on the X axis and at its
// 19,756-run peak on the Y axis; observed CPU times extend beyond 1e6 s.
// This scenario draws the same number of samples from the synthetic
// mixture and reports the truncated histogram plus the tail summary.
// One sequential sampling pass feeding every cell — nothing for --jobs
// to parallelize.
#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "workload/cpu_time.hpp"

namespace actyp {
namespace {

constexpr int kPaperRuns = 236222;  // the paper's sample count

ScenarioReport RunFig9(const ScenarioRunOptions& options) {
  ScenarioReport report;
  report.title = "Fig. 9 — CPU-time distribution of synthetic PUNCH runs";

  // Clamp in the double domain: a huge --time-scale must not overflow
  // the int conversion (UB).
  const int runs = static_cast<int>(
      std::clamp(kPaperRuns * options.time_scale, 1000.0, 1e8));
  workload::CpuTimeModel model;
  Rng rng(options.seed.value_or(20010609));
  Histogram histogram(0, 1000, 100);  // 10-second buckets, as in Fig. 9
  RunningStats stats;
  QuantileSampler quantiles(1 << 17);
  double max_seen = 0;
  std::uint64_t beyond_1000 = 0, beyond_1e6 = 0;

  for (int i = 0; i < runs; ++i) {
    const double seconds = model.Sample(rng);
    histogram.Add(seconds);
    stats.Add(seconds);
    quantiles.Add(seconds);
    max_seen = std::max(max_seen, seconds);
    beyond_1000 += (seconds > 1000.0);
    beyond_1e6 += (seconds > 1e6);
  }

  // The head of the histogram, where the action is (X truncated at
  // 1000 s as in the paper; first 20 buckets).
  for (std::size_t b = 0; b < 20; ++b) {
    ScenarioCell cell;
    cell.dims.emplace_back("bucket_lo_s", histogram.bucket_lo(b));
    cell.dims.emplace_back("bucket_hi_s", histogram.bucket_hi(b));
    cell.metrics.emplace_back("count",
                              static_cast<double>(histogram.bucket(b)));
    report.cells.push_back(std::move(cell));
  }

  ScenarioCell summary;
  summary.metrics.emplace_back("samples", static_cast<double>(runs));
  summary.metrics.emplace_back(
      "peak_bucket", static_cast<double>(histogram.max_bucket_count()));
  summary.metrics.emplace_back("median_s", quantiles.Quantile(0.5));
  summary.metrics.emplace_back("p90_s", quantiles.Quantile(0.9));
  summary.metrics.emplace_back("p99_s", quantiles.Quantile(0.99));
  summary.metrics.emplace_back("beyond_1000",
                               static_cast<double>(beyond_1000));
  summary.metrics.emplace_back("beyond_1e6", static_cast<double>(beyond_1e6));
  summary.metrics.emplace_back("max_s", max_seen);
  report.cells.push_back(std::move(summary));

  report.note =
      "shape check: mode in the first bucket (a few seconds), monotone "
      "decay over the truncated axis, and a heavy tail past 1e6 s (paper: "
      "peak 19,756 runs; max 'more than 1e6 seconds').";
  return report;
}

const ScenarioRegistrar kRegistrar(
    "fig9_workload",
    "CPU-time distribution of 236,222 synthetic PUNCH runs", RunFig9);

}  // namespace
}  // namespace actyp
