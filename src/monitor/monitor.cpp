#include "monitor/monitor.hpp"

#include <algorithm>
#include <cmath>

namespace actyp::monitor {

ResourceMonitor::ResourceMonitor(db::ResourceDatabase* database,
                                 MonitorConfig config, Rng rng)
    : database_(database), config_(config), rng_(rng) {}

ResourceMonitor::PerMachine& ResourceMonitor::Track(
    const db::MachineRecord& rec) {
  if (rec.id >= machines_.size()) machines_.resize(rec.id + 1);
  PerMachine& pm = machines_[rec.id];
  if (pm.tracked) return pm;
  pm.background_load =
      std::max(0.0, config_.background_load_mean + rng_.Gaussian(0.0, 0.1));
  pm.base_memory_mb = rec.dyn.available_memory_mb;
  pm.base_swap_mb = rec.dyn.available_swap_mb;
  pm.last_update = rec.dyn.last_update;
  pm.tracked = true;
  return pm;
}

std::size_t ResourceMonitor::Step(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  // Room for every id the white pages assigns up front, so the first
  // sweep grows the table once.
  if (machines_.size() <= database_->size()) {
    machines_.resize(database_->size() + 1);
  }
  // One in-place walk: each due record is rewritten where it lies and
  // marked dirty (version-bumped) in walk order, so pool refreshes stay
  // proportional to churn.
  std::size_t rewritten = 0;
  database_->SweepDynamic([&](const db::MachineRecord& rec,
                              db::DynamicState& dyn) {
    PerMachine& pm = Track(rec);
    const SimDuration since = now - pm.last_update;
    if (since < config_.update_period) return false;
    const double dt = ToSeconds(since);

    // Euler-Maruyama step of dX = k(mean - X)dt + sigma dW, clamped >= 0.
    const double drift =
        config_.reversion_rate * (config_.background_load_mean - pm.background_load) * dt;
    const double diffusion =
        config_.volatility * std::sqrt(std::max(dt, 0.0)) * rng_.Gaussian();
    pm.background_load = std::max(0.0, pm.background_load + drift + diffusion);
    pm.last_update = now;

    // Fields 2-6 are the monitor's; the service flags (field 7) stay.
    dyn = db::DynamicState{.load = pm.background_load,
                           .active_jobs = 0,
                           .available_memory_mb =
                               std::max(0.0, pm.base_memory_mb),
                           .available_swap_mb = pm.base_swap_mb,
                           .last_update = now,
                           .service_flags = dyn.service_flags};
    ++rewritten;
    return true;
  });
  return rewritten;
}

}  // namespace actyp::monitor
