// Continuous telemetry: gauge samples over simulated time. Where the
// scenario report is one end-of-run aggregate, the telemetry sampler
// is a SimScenario::Measure sampler (the chunk loop that also takes the
// --metrics-interval snapshots): the run pauses between RunUntil chunks
// and gauges are read single-threaded, on serial and LP scenarios
// alike. Chunked RunUntil never reorders events, so sampling is
// invisible to the simulation: reports stay byte-identical with it on
// or off, and the samples themselves are byte-identical for any
// --jobs/--cell-jobs.
//
// Each sample is one profile::MetricCell (scenario "telemetry", the
// cell seed as a label, gauges in a fixed order), so the existing
// MetricsExporter serializes the series as JSON-lines for
// --telemetry-out.
#pragma once

#include "common/seed_sink.hpp"
#include "common/sim_time.hpp"
#include "profile/metrics_exporter.hpp"

namespace actyp {
class SimScenario;
}  // namespace actyp

namespace actyp::obs {

// Reads every gauge at sim time `t` (call only between RunUntil
// chunks). Makes no RNG draws and consumes no cores.
[[nodiscard]] profile::MetricCell TelemetrySample(SimScenario& scenario,
                                                  SimTime t);

// Per-cell sample series from sweep cells, keyed by cell seed (see
// common/seed_sink.hpp for the drain order).
using TelemetrySink = SeedSink<profile::MetricCell>;

}  // namespace actyp::obs
