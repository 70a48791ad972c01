// StageProfiler: low-overhead per-stage latency capture for the
// client -> QM -> PM -> pool -> reply pipeline. Each instrumented hop
// records one span {request_id, stage, t_enter, t_exit} into a
// fixed-size ring buffer (recent-history debugging) and folds its
// duration into a streaming geometric-bucket histogram per stage, from
// which the scenario reports derive p50/p95/p99.
//
// All stamps are simulated time: t_enter is the envelope's sent_at (so
// a span covers transport latency + queue wait + service time) and
// t_exit is Now() plus the service time the handler consumed. Under a
// fixed seed the percentiles are therefore deterministic and can be
// tracked by the bench baseline like any other simulated metric.
//
// Switching off: at runtime, leave the profiler pointer in a stage
// config null (SimScenario does this for ScenarioConfig::profile =
// false) — the hooks reduce to one pointer test and the report output
// is byte-identical to the unprofiled seed path. At compile time,
// configure with -DACTYP_PROFILE=OFF to define ACTYP_PROFILE_OFF and
// compile Record() away entirely.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/sim_time.hpp"

namespace actyp::profile {

// Pipeline hops instrumented by the scenario substrate, in pipeline
// order. kClientIssue is the client-observed end-to-end span (first
// send of the request to the accepted allocation); kReply is the last
// hop back (pool/reintegrator send to client receipt); the middle four
// are per-stage handling spans. The last two are background services
// outside the request pipeline: one span per replica anti-entropy pull
// and per monitor refresh sweep, stamped with BackgroundId() request
// ids so trace assembly can keep them off the request waterfalls.
enum class Stage : std::uint8_t {
  kClientIssue = 0,  // client first send -> accepted allocation arrives
  kQmAdmit,          // query arrives at QM queue -> fragments routed
  kPmDelegate,       // fragment at PM queue -> split/forward/delegate done
  kPoolSelect,       // query at pool queue -> machine selected, reply sent
  kReintegrate,      // fragment result at reintegrator -> folded/forwarded
  kReply,            // allocation sent -> client receives it
  kReplicaSync,      // one anti-entropy pull (delta or full-state)
  kMonitorSweep,     // one monitor refresh sweep over due machines
};

inline constexpr std::size_t kStageCount = 8;

// Background spans (replica sync, monitor sweeps) are not tied to any
// client request; their request_id carries this tag bit plus the stage
// and an instance number, so they never collide with real request ids
// (client_id << 32 | seq keeps bit 63 clear) and trace assembly can
// route them to their own tracks instead of joining them into request
// waterfalls.
inline constexpr std::uint64_t kBackgroundIdBit = 1ull << 63;

[[nodiscard]] constexpr std::uint64_t BackgroundId(Stage stage,
                                                   std::uint64_t instance) {
  return kBackgroundIdBit |
         (static_cast<std::uint64_t>(stage) << 56) | instance;
}

[[nodiscard]] constexpr bool IsBackgroundId(std::uint64_t request_id) {
  return (request_id & kBackgroundIdBit) != 0;
}

// Instance number back out of a BackgroundId (for track labeling).
[[nodiscard]] constexpr std::uint64_t BackgroundInstance(
    std::uint64_t request_id) {
  return request_id & ((1ull << 56) - 1);
}

// Stable snake_case stage names used as metric-name prefixes in the
// scenario reports (e.g. "pool_select_p95_s") and exporter output.
[[nodiscard]] std::string_view StageName(Stage stage);

// Reverse of StageName (for --trace-filter); nullopt on unknown names.
[[nodiscard]] std::optional<Stage> StageFromName(std::string_view name);

// One captured span. 16 bytes of payload plus the stage tag; the ring
// keeps the most recent `ring_capacity` of these across all stages.
struct SpanRecord {
  std::uint64_t request_id = 0;
  Stage stage = Stage::kClientIssue;
  SimTime t_enter = 0;
  SimTime t_exit = 0;

  // Total order (t_enter, t_exit, stage, request_id): time order within
  // a trace, and how a TraceSink orders two cells that share a seed.
  friend bool operator<(const SpanRecord& a, const SpanRecord& b) {
    return std::tie(a.t_enter, a.t_exit, a.stage, a.request_id) <
           std::tie(b.t_enter, b.t_exit, b.stage, b.request_id);
  }
};

// Streaming latency histogram with geometric buckets: fixed memory,
// O(1) insert, exact count/sum/min/max, quantiles by linear
// interpolation within the hit bucket (clamped to the observed range,
// so a degenerate single-value distribution reports that value
// exactly). Histograms with the same geometry merge losslessly —
// merging per-cell histograms equals one histogram over the combined
// samples, which is what lets sweep cells aggregate.
class LatencyHistogram {
 public:
  struct Geometry {
    double min_value = 1e-6;  // lower edge of the first geometric bucket
    double max_value = 1e3;   // values at/above this land in overflow
    std::size_t buckets_per_decade = 16;  // ~15% relative bucket width
  };

  LatencyHistogram();  // default geometry
  explicit LatencyHistogram(const Geometry& geometry);

  void Add(double value);
  void Reset();
  // Folds `other` in; both histograms must share one geometry.
  void Merge(const LatencyHistogram& other);

  [[nodiscard]] double Quantile(double q) const;  // 0 when empty
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] const Geometry& geometry() const { return geometry_; }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

 private:
  [[nodiscard]] std::size_t BucketIndex(double value) const;
  // Value range covered by bucket `index` (underflow starts at 0,
  // overflow is clamped to the observed max).
  [[nodiscard]] double BucketLo(std::size_t index) const;
  [[nodiscard]] double BucketHi(std::size_t index) const;

  Geometry geometry_;
  double log_scale_ = 0;  // buckets_per_decade / ln(10)
  std::vector<std::uint64_t> buckets_;  // [underflow, geometric..., overflow]
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Per-stage digest the reports consume.
struct StageSummary {
  std::uint64_t count = 0;
  double mean_s = 0;
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
  double max_s = 0;
};

class StageProfiler {
 public:
  struct Config {
    std::size_t ring_capacity = 4096;
    LatencyHistogram::Geometry geometry;
  };

  StageProfiler();  // default config
  explicit StageProfiler(const Config& config);

  // Records one completed span. Spans with t_exit < t_enter (a stale or
  // mis-stamped envelope) are dropped rather than folded in as garbage.
#if defined(ACTYP_PROFILE_OFF)
  void Record(Stage /*stage*/, std::uint64_t /*request_id*/,
              SimTime /*t_enter*/, SimTime /*t_exit*/) {}
#else
  void Record(Stage stage, std::uint64_t request_id, SimTime t_enter,
              SimTime t_exit);
#endif

  // Clears histograms and ring (Measure() calls this after warmup, in
  // step with the response collector).
  void Reset();

  // Folds another profiler's histograms in (ring contents are not
  // merged — the ring is a per-simulation debugging aid, the histograms
  // are the aggregatable signal).
  void Merge(const StageProfiler& other);

  // Appends another profiler's retained spans (oldest first) into this
  // ring; histograms are untouched (pair with Merge for the full fold).
  // The LP-parallel scenarios drain per-site profilers in site-rank
  // order into a merged profiler whose ring capacity is sites x the
  // per-site capacity, so the union is lossless and trace assembly
  // sees the same span set at any worker count.
  void AbsorbRing(const StageProfiler& other);

  [[nodiscard]] StageSummary Summary(Stage stage) const;
  [[nodiscard]] const LatencyHistogram& histogram(Stage stage) const;

  // Spans recorded since the last Reset (including any the ring has
  // since overwritten).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::size_t ring_capacity() const { return ring_capacity_; }
  // The retained spans, oldest first.
  [[nodiscard]] std::vector<SpanRecord> RingSnapshot() const;

 private:
  std::size_t ring_capacity_;
  std::array<LatencyHistogram, kStageCount> histograms_;
  std::vector<SpanRecord> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t recorded_ = 0;
};

}  // namespace actyp::profile
