// Resource monitoring service (§4.2): keeps white-pages fields 2-7
// fresh. The paper delegates this to any off-the-shelf monitor (they
// were evaluating SGI's Performance Co-Pilot); here the monitor is a
// synthetic one whose background load is a mean-reverting
// (Ornstein-Uhlenbeck style) process per machine, representing
// interactive users, so scheduling policies have realistic,
// time-varying state to act on. The load of ActYP-placed jobs is not
// the monitor's: each resource pool adds its own allocations to its
// cached view of the machine.
#pragma once

#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "db/database.hpp"

namespace actyp::monitor {

struct MonitorConfig {
  double background_load_mean = 0.25;  // long-run mean of background load
  double reversion_rate = 0.2;         // pull toward the mean, per second
  double volatility = 0.15;            // diffusion per sqrt(second)
  SimDuration update_period = Seconds(5.0);  // refresh cadence (field 6)
};

class ResourceMonitor {
 public:
  ResourceMonitor(db::ResourceDatabase* database, MonitorConfig config,
                  Rng rng);

  // Advances every machine's dynamic state to `now`. Machines are only
  // rewritten when a full update period has elapsed since their last
  // update, mirroring a periodic monitoring daemon. Returns the number
  // of machines rewritten — the sweep's work, which the profiler's
  // monitor_sweep span models its cost from.
  //
  // Cost: one in-place walk of the white pages (SweepDynamic) that
  // reads this machine's state by index and rewrites each due record
  // where it lies, with no lookup, copy or allocation once every
  // machine is tracked.
  std::size_t Step(SimTime now);

 private:
  struct PerMachine {
    double background_load = 0.0;
    double base_memory_mb = 0.0;
    double base_swap_mb = 0.0;
    SimTime last_update = 0;
    bool tracked = false;  // seeded at the machine's first sweep
  };

  // The state of `rec`'s machine, seeded on first sight (one Gaussian
  // draw, in the sweep's ascending id order).
  PerMachine& Track(const db::MachineRecord& rec);

  db::ResourceDatabase* database_;
  MonitorConfig config_;
  Rng rng_;
  std::mutex mu_;
  // Indexed by machine id, so it spans the largest id seen: dense for
  // every fleet the white pages assign ids to.
  std::vector<PerMachine> machines_;
};

}  // namespace actyp::monitor
