// Continuous telemetry: gauge samples over simulated time. Where the
// scenario report is one end-of-run aggregate and --metrics-interval
// streams snapshots from a kernel timer (serial scenarios only — a
// shard-0 tick would race the other LPs), the telemetry sampler pauses
// the run between RunUntil chunks and reads gauges single-threaded.
// Chunked RunUntil never reorders events, so sampling is invisible to
// the simulation: reports stay byte-identical with it on or off, and
// the samples themselves are byte-identical for any --jobs/--cell-jobs.
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
