#include "monitor/monitor.hpp"

#include <algorithm>
#include <cmath>

namespace actyp::monitor {

ResourceMonitor::ResourceMonitor(db::ResourceDatabase* database,
                                 MonitorConfig config, Rng rng)
    : database_(database), config_(config), rng_(rng) {}

void ResourceMonitor::EnsureTracked(db::MachineId id,
                                    const db::MachineRecord& rec) {
  auto it = machines_.find(id);
  if (it != machines_.end()) return;
  PerMachine pm;
  pm.background_load =
      std::max(0.0, config_.background_load_mean + rng_.Gaussian(0.0, 0.1));
  pm.base_memory_mb = rec.dyn.available_memory_mb;
  pm.base_swap_mb = rec.dyn.available_swap_mb;
  pm.last_update = rec.dyn.last_update;
  machines_.emplace(id, pm);
}

std::size_t ResourceMonitor::Step(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  // One no-copy walk of the white pages computes the rewrites, then one
  // batched write applies them: the sweep no longer snapshots every
  // record, and only the machines actually rewritten are marked dirty
  // (version-bumped), so pool refreshes stay proportional to churn.
  batch_.clear();
  database_->VisitAll([&](const db::MachineRecord& rec) {
    EnsureTracked(rec.id, rec);
    PerMachine& pm = machines_.at(rec.id);
    const SimDuration since = now - pm.last_update;
    if (since < config_.update_period) return;
    const double dt = ToSeconds(since);

    // Euler-Maruyama step of dX = k(mean - X)dt + sigma dW, clamped >= 0.
    const double drift =
        config_.reversion_rate * (config_.background_load_mean - pm.background_load) * dt;
    const double diffusion =
        config_.volatility * std::sqrt(std::max(dt, 0.0)) * rng_.Gaussian();
    pm.background_load = std::max(0.0, pm.background_load + drift + diffusion);
    pm.last_update = now;

    db::DynamicState dyn;
    dyn.load = pm.background_load;
    dyn.available_memory_mb = std::max(0.0, pm.base_memory_mb);
    dyn.available_swap_mb = pm.base_swap_mb;
    dyn.last_update = now;
    dyn.service_flags = rec.dyn.service_flags;
    batch_.emplace_back(rec.id, dyn);
  });
  database_->ApplyDynamic(batch_);
  return batch_.size();
}

}  // namespace actyp::monitor
