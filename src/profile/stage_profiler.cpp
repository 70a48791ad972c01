#include "profile/stage_profiler.hpp"

#include <algorithm>
#include <cmath>

namespace actyp::profile {

std::string_view StageName(Stage stage) {
  switch (stage) {
    case Stage::kClientIssue:
      return "client_issue";
    case Stage::kQmAdmit:
      return "qm_admit";
    case Stage::kPmDelegate:
      return "pm_delegate";
    case Stage::kPoolSelect:
      return "pool_select";
    case Stage::kReintegrate:
      return "reintegrate";
    case Stage::kReply:
      return "reply";
    case Stage::kReplicaSync:
      return "replica_sync";
    case Stage::kMonitorSweep:
      return "monitor_sweep";
  }
  return "unknown";
}

std::optional<Stage> StageFromName(std::string_view name) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const auto stage = static_cast<Stage>(i);
    if (StageName(stage) == name) return stage;
  }
  return std::nullopt;
}

LatencyHistogram::LatencyHistogram() : LatencyHistogram(Geometry{}) {}

LatencyHistogram::LatencyHistogram(const Geometry& geometry)
    : geometry_(geometry) {
  // Guard against degenerate geometries so BucketIndex stays total.
  if (geometry_.min_value <= 0) geometry_.min_value = 1e-9;
  if (geometry_.max_value <= geometry_.min_value) {
    geometry_.max_value = geometry_.min_value * 10.0;
  }
  if (geometry_.buckets_per_decade == 0) geometry_.buckets_per_decade = 1;
  log_scale_ =
      static_cast<double>(geometry_.buckets_per_decade) / std::log(10.0);
  const double decades =
      std::log10(geometry_.max_value / geometry_.min_value);
  const auto geometric = static_cast<std::size_t>(std::ceil(
      decades * static_cast<double>(geometry_.buckets_per_decade)));
  // [0] underflow, [1 .. geometric] geometric, [last] overflow.
  buckets_.assign(geometric + 2, 0);
}

std::size_t LatencyHistogram::BucketIndex(double value) const {
  if (value < geometry_.min_value) return 0;
  if (value >= geometry_.max_value) return buckets_.size() - 1;
  const auto index = static_cast<std::size_t>(
      std::log(value / geometry_.min_value) * log_scale_);
  return std::min(index + 1, buckets_.size() - 2);
}

double LatencyHistogram::BucketLo(std::size_t index) const {
  if (index == 0) return 0.0;
  if (index == buckets_.size() - 1) return geometry_.max_value;
  return geometry_.min_value *
         std::exp(static_cast<double>(index - 1) / log_scale_);
}

double LatencyHistogram::BucketHi(std::size_t index) const {
  if (index == 0) return geometry_.min_value;
  if (index >= buckets_.size() - 1) return std::max(max_, geometry_.max_value);
  return geometry_.min_value *
         std::exp(static_cast<double>(index) / log_scale_);
}

void LatencyHistogram::Add(double value) {
  if (!(value >= 0)) return;  // drops negatives and NaN
  ++buckets_[BucketIndex(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  // Same geometry is a structural invariant of the callers (all cells
  // of a sweep share the profiler config); differing bucket counts
  // would silently mis-bin, so fall back to nothing in that case.
  if (buckets_.size() != other.buckets_.size()) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const auto next = cumulative + buckets_[i];
    if (static_cast<double>(next) >= target) {
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(buckets_[i]);
      const double lo = BucketLo(i);
      const double hi = BucketHi(i);
      const double estimate = lo + within * (hi - lo);
      // The exact extremes bound the interpolation error: a single
      // observed value always reports itself.
      return std::clamp(estimate, min_, max_);
    }
    cumulative = next;
  }
  return max_;
}

StageProfiler::StageProfiler() : StageProfiler(Config{}) {}

StageProfiler::StageProfiler(const Config& config)
    : ring_capacity_(std::max<std::size_t>(config.ring_capacity, 1)) {
  histograms_.fill(LatencyHistogram(config.geometry));
  ring_.reserve(std::min<std::size_t>(ring_capacity_, 4096));
}

void StageProfiler::Record(Stage stage, std::uint64_t request_id,
                           SimTime t_enter, SimTime t_exit) {
  if (t_exit < t_enter) return;
  const double seconds = ToSeconds(t_exit - t_enter);
  histograms_[static_cast<std::size_t>(stage)].Add(seconds);
  ++recorded_;
  const SpanRecord record{request_id, stage, t_enter, t_exit};
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(record);
  } else {
    ring_[ring_next_] = record;
  }
  ring_next_ = (ring_next_ + 1) % ring_capacity_;
}

void StageProfiler::Reset() {
  for (auto& histogram : histograms_) histogram.Reset();
  ring_.clear();
  ring_next_ = 0;
  recorded_ = 0;
}

void StageProfiler::Merge(const StageProfiler& other) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    histograms_[i].Merge(other.histograms_[i]);
  }
  recorded_ += other.recorded_;
}

void StageProfiler::AbsorbRing(const StageProfiler& other) {
  for (const SpanRecord& record : other.RingSnapshot()) {
    if (ring_.size() < ring_capacity_) {
      ring_.push_back(record);
    } else {
      ring_[ring_next_] = record;
    }
    ring_next_ = (ring_next_ + 1) % ring_capacity_;
  }
}

StageSummary StageProfiler::Summary(Stage stage) const {
  const LatencyHistogram& histogram =
      histograms_[static_cast<std::size_t>(stage)];
  StageSummary summary;
  summary.count = histogram.count();
  summary.mean_s = histogram.mean();
  summary.p50_s = histogram.Quantile(0.50);
  summary.p95_s = histogram.Quantile(0.95);
  summary.p99_s = histogram.Quantile(0.99);
  summary.max_s = histogram.max();
  return summary;
}

const LatencyHistogram& StageProfiler::histogram(Stage stage) const {
  return histograms_[static_cast<std::size_t>(stage)];
}

std::vector<SpanRecord> StageProfiler::RingSnapshot() const {
  std::vector<SpanRecord> snapshot;
  snapshot.reserve(ring_.size());
  if (ring_.size() < ring_capacity_) {
    snapshot = ring_;
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      snapshot.push_back(ring_[(ring_next_ + i) % ring_.size()]);
    }
  }
  return snapshot;
}

}  // namespace actyp::profile
