// The metric list of one measured cell: every metric a finished
// SimScenario reports, as one ordered (name, value) list in which each
// metric is named once, where its value is read. The scenario sweeps
// (bench/) and the chaos trials (src/chaos/) both take their report
// rows from it, by metric group or by name.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "actyp/scenario.hpp"
#include "actyp/scenario_registry.hpp"

namespace actyp {

// Metric groups, in the order a cell's metric list holds them. A
// report row selects a union of groups, or single metrics by name.
enum MetricGroup : unsigned {
  kResponse = 1u << 0,  // mean_s p50_s p95_s completed failures
  kStages = 1u << 1,    // <stage>_p50_s/_p95_s/_p99_s (profiled runs)
  kTrace = 1u << 2,     // tail attribution digest (profiled runs)
  kFault = 1u << 3,     // success rate, lost messages, client retries
  kChurn = 1u << 4,     // injected machine and service crashes
  kReplica = 1u << 5,   // replicated-directory observables
  kEngine = 1u << 6,    // selection and refresh cost
  kPool = 1u << 7,      // placement and on-demand creation counters
};

// The standard report: the response metrics plus, on profiled runs, the
// per-stage percentiles and the trace digest. An unprofiled run lists
// neither, so its report is exactly the five response metrics, the
// pre-profiler output.
inline constexpr unsigned kStandard = kResponse | kStages | kTrace;

// One cell's metrics as one ordered (name, value) list.
class CellMetrics {
 public:
  void Add(MetricGroup group, std::string name, double value) {
    entries_.push_back({group, std::move(name), value});
  }

  // The response group, from any client collector.
  void AddResponse(const workload::ResponseCollector& collector);

  // The stage group: p50/p95/p99 of every stage (see profile::StageName).
  void AddStages(const profile::StageProfiler& profiler);

  // Appends every metric of the selected groups to the cell, in list
  // order.
  void Select(unsigned groups, ScenarioCell* cell) const {
    for (const Entry& entry : entries_) {
      if ((entry.group & groups) != 0) {
        cell->metrics.emplace_back(entry.name, entry.value);
      }
    }
  }

  // Appends the named metrics in the order given. A name the list does
  // not hold (a stage metric of an unprofiled run) appends nothing.
  void Select(std::initializer_list<std::string_view> names,
              ScenarioCell* cell) const {
    for (const std::string_view name : names) {
      for (const Entry& entry : entries_) {
        if (entry.name == name) {
          cell->metrics.emplace_back(entry.name, entry.value);
          break;
        }
      }
    }
  }

 private:
  struct Entry {
    MetricGroup group;
    std::string name;
    double value;
  };
  std::vector<Entry> entries_;
};

// Lists a scenario's metrics, in report order: response, the profiled
// stage/trace block, then fault, churn, replica, engine and pool
// metrics. All of them are deterministic functions of the seed.
[[nodiscard]] CellMetrics CollectCell(SimScenario& scenario);

}  // namespace actyp
