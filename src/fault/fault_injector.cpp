#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/strings.hpp"
#include "obs/flight_recorder.hpp"

namespace actyp::fault {
namespace {

std::string FormatProbability(double p) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", p);
  return buffer;
}

}  // namespace

void FaultInjector::RecordFault(bool strike, const std::string& detail) {
  if (recorder_ == nullptr) return;
  recorder_->Record(kernel_->Now(),
                    strike ? obs::FlightKind::kFaultStrike
                           : obs::FlightKind::kFaultRecover,
                    0, "fault", detail);
}

FaultInjector::FaultInjector(simnet::SimKernel* kernel,
                             simnet::SimNetwork* network, std::uint64_t seed)
    : kernel_(kernel), network_(network), rng_(seed) {}

void FaultInjector::SetMachineHooks(CrashMachinesFn crash,
                                    RestoreMachinesFn restore) {
  crash_machines_ = std::move(crash);
  restore_machines_ = std::move(restore);
}

void FaultInjector::SetPoolHook(KillPoolFn kill) {
  kill_pool_ = std::move(kill);
}

void FaultInjector::SetSiteHook(CrashSiteMachinesFn crash_site) {
  crash_site_machines_ = std::move(crash_site);
}

void FaultInjector::RegisterService(const std::string& name,
                                    std::function<void()> crash,
                                    std::function<void()> restart,
                                    const std::string& site) {
  services_[name] = Service{std::move(crash), std::move(restart), site, false};
}

void FaultInjector::RegisterSite(const std::string& site) {
  if (!site.empty()) known_sites_.insert(site);
}

Status FaultInjector::CheckHooks(const FaultEvent& event) const {
  // Site-name validation only bites once the scenario declared its
  // sites; a bare injector keeps accepting any name.
  const auto known_site = [this](const std::string& site) {
    return known_sites_.empty() || known_sites_.count(site) != 0;
  };
  if (event.kind == FaultKind::kSiteCrash ||
      event.kind == FaultKind::kSiteRestore) {
    if (!crash_site_machines_ || !restore_machines_) {
      return InvalidArgument("fault plan has site events but no site hook "
                                "is installed");
    }
    if (!known_site(event.site)) {
      return InvalidArgument("fault plan references unknown site '" +
                             event.site + "'");
    }
    return Status::Ok();
  }
  if (event.kind == FaultKind::kLatency ||
      event.kind == FaultKind::kPartition) {
    for (const std::string* site : {&event.site_a, &event.site_b}) {
      if (*site != "*" && !known_site(*site)) {
        return InvalidArgument("fault plan references unknown site '" +
                               *site + "'");
      }
    }
    return Status::Ok();
  }
  if (event.kind != FaultKind::kCrash && event.kind != FaultKind::kChurn) {
    return Status::Ok();
  }
  if (event.target == "machines") {
    if (!crash_machines_ || !restore_machines_) {
      return InvalidArgument("fault plan targets machines but no machine "
                                "hooks are installed");
    }
    return Status::Ok();
  }
  if (event.target == "pools") {
    if (!kill_pool_) {
      return InvalidArgument("fault plan targets pools but no pool hook "
                                "is installed");
    }
    return Status::Ok();
  }
  if (MatchServices(event.target).empty()) {
    return InvalidArgument("fault plan targets '" + event.target +
                              "' but no registered service matches");
  }
  return Status::Ok();
}

Status FaultInjector::Arm(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events) {
    if (Status status = CheckHooks(event); !status.ok()) return status;
  }
  for (const FaultEvent& event : plan.events) {
    switch (event.kind) {
      case FaultKind::kLoss:
        ArmLoss(event);
        break;
      case FaultKind::kLatency:
        ArmLatency(event);
        break;
      case FaultKind::kPartition:
        ArmPartition(event);
        break;
      case FaultKind::kCrash:
        ArmCrash(event);
        break;
      case FaultKind::kChurn:
        ArmChurn(event);
        break;
      case FaultKind::kSiteCrash:
        kernel_->ScheduleAt(event.start, [this, event] {
          CrashSite(event.site, event.downtime);
        });
        break;
      case FaultKind::kSiteRestore:
        kernel_->ScheduleAt(event.start,
                            [this, event] { RestoreSite(event.site); });
        break;
    }
  }
  return Status::Ok();
}

FaultInjector::SitePair FaultInjector::MakeSitePair(const FaultEvent& event) {
  return event.site_a <= event.site_b
             ? SitePair{event.site_a, event.site_b}
             : SitePair{event.site_b, event.site_a};
}

void FaultInjector::ArmLoss(const FaultEvent& event) {
  // Open windows stack: the most recently opened probability is in
  // force, closing one restores the next one down (or the base rate the
  // scenario configured, captured when the first window opens).
  const std::uint64_t id = next_window_id_++;
  kernel_->ScheduleAt(event.start, [this, event, id] {
    if (open_loss_.empty()) base_loss_ = network_->loss_probability();
    open_loss_.emplace_back(id, event.probability);
    network_->SetLossProbability(event.probability);
    ++stats_.loss_windows_opened;
    RecordFault(true, "loss window open p=" +
                          FormatProbability(event.probability));
  });
  if (event.end > event.start) {
    kernel_->ScheduleAt(event.end, [this, id] {
      std::erase_if(open_loss_,
                    [id](const auto& window) { return window.first == id; });
      network_->SetLossProbability(
          open_loss_.empty() ? base_loss_ : open_loss_.back().second);
      ++stats_.loss_windows_closed;
      RecordFault(false, "loss window close");
    });
  }
}

void FaultInjector::ArmLatency(const FaultEvent& event) {
  // Concurrent spikes on one site pair add up; each close subtracts its
  // own contribution, so an early end never cancels a still-open spike.
  const SitePair pair = MakeSitePair(event);
  kernel_->ScheduleAt(event.start, [this, event, pair] {
    open_latency_[pair] += event.extra_latency;
    network_->topology().SetLatencyPenalty(event.site_a, event.site_b,
                                           open_latency_[pair]);
    ++stats_.latency_spikes;
    RecordFault(true,
                "latency spike " + event.site_a + "-" + event.site_b);
  });
  if (event.end > event.start) {
    kernel_->ScheduleAt(event.end, [this, event, pair] {
      open_latency_[pair] -= event.extra_latency;
      network_->topology().SetLatencyPenalty(event.site_a, event.site_b,
                                             open_latency_[pair]);
      RecordFault(false,
                  "latency restore " + event.site_a + "-" + event.site_b);
    });
  }
}

void FaultInjector::ArmPartition(const FaultEvent& event) {
  // A pair heals only when every overlapping cut on it has healed.
  const SitePair pair = MakeSitePair(event);
  kernel_->ScheduleAt(event.start, [this, event, pair] {
    if (++open_partitions_[pair] == 1) {
      network_->topology().SetPartition(event.site_a, event.site_b, true);
    }
    ++stats_.partitions_cut;
    RecordFault(true,
                "partition cut " + event.site_a + "-" + event.site_b);
  });
  if (event.end > event.start) {
    kernel_->ScheduleAt(event.end, [this, event, pair] {
      if (--open_partitions_[pair] == 0) {
        network_->topology().SetPartition(event.site_a, event.site_b, false);
      }
      ++stats_.partitions_healed;
      RecordFault(false,
                  "partition heal " + event.site_a + "-" + event.site_b);
    });
  }
}

void FaultInjector::ArmCrash(const FaultEvent& event) {
  kernel_->ScheduleAt(event.start, [this, event] { Strike(event); });
}

void FaultInjector::ArmChurn(const FaultEvent& event) {
  const SimDuration interval = std::max<SimDuration>(
      Micros(1), Seconds(1.0 / event.rate_per_s));
  // First strike lands one interval after the window opens; each tick
  // re-arms the next, so the cadence is exact and fully deterministic.
  kernel_->ScheduleAt(event.start + interval,
                      [this, event, interval] { ChurnTick(event, interval); });
}

void FaultInjector::ChurnTick(const FaultEvent& event, SimDuration interval) {
  if (event.end != 0 && kernel_->Now() >= event.end) return;
  ++stats_.churn_ticks;
  Strike(event);
  kernel_->Schedule(interval,
                    [this, event, interval] { ChurnTick(event, interval); });
}

void FaultInjector::Strike(const FaultEvent& event) {
  if (event.target == "machines") {
    CrashMachines(event.count, event.downtime);
  } else if (event.target == "pools") {
    if (kill_pool_(rng_)) {
      ++stats_.pools_killed;
      RecordFault(true, "pool kill");
    }
  } else {
    // A one-shot crash takes down every matching service; churn picks
    // one victim per tick.
    CrashService(event.target, event.downtime,
                 /*pick_one=*/event.kind == FaultKind::kChurn);
  }
}

void FaultInjector::CrashMachines(std::size_t count, SimDuration downtime) {
  const std::vector<db::MachineId> victims = crash_machines_(count, rng_);
  if (victims.empty()) return;
  stats_.machines_crashed += victims.size();
  RecordFault(true,
              "machines crash n=" + std::to_string(victims.size()));
  if (downtime > 0) {
    kernel_->Schedule(downtime, [this, victims] {
      restore_machines_(victims);
      stats_.machines_restored += victims.size();
      RecordFault(false,
                  "machines restore n=" + std::to_string(victims.size()));
    });
  }
}

void FaultInjector::CrashService(const std::string& glob, SimDuration downtime,
                                 bool pick_one) {
  std::vector<std::string> up;
  for (const std::string& name : MatchServices(glob)) {
    if (!services_.at(name).down) up.push_back(name);
  }
  if (up.empty()) return;
  if (pick_one) {
    const std::string victim = up[rng_.NextBounded(up.size())];
    up = {victim};
  }
  for (const std::string& name : up) {
    Service& service = services_.at(name);
    service.down = true;
    service.crash();
    ++stats_.services_crashed;
    RecordFault(true, "service crash " + name);
    if (downtime > 0) {
      kernel_->Schedule(downtime, [this, name] {
        auto it = services_.find(name);
        if (it == services_.end() || !it->second.down) return;
        it->second.restart();
        it->second.down = false;
        ++stats_.services_restarted;
        RecordFault(false, "service restart " + name);
      });
    }
  }
}

void FaultInjector::CrashSite(const std::string& site, SimDuration downtime) {
  if (!site_down_machines_[site].empty() ||
      !site_down_services_[site].empty()) {
    return;  // the site is already dark; overlapping crashes do not stack
  }
  ++stats_.sites_crashed;
  RecordFault(true, "site crash " + site);
  std::vector<db::MachineId> victims = crash_site_machines_(site);
  stats_.machines_crashed += victims.size();
  site_down_machines_[site] = std::move(victims);
  auto& downed = site_down_services_[site];
  for (auto& [name, service] : services_) {
    if (service.site != site || service.down) continue;
    service.down = true;
    service.crash();
    ++stats_.services_crashed;
    downed.push_back(name);
  }
  if (downtime > 0) {
    kernel_->Schedule(downtime, [this, site] { RestoreSite(site); });
  }
}

void FaultInjector::RestoreSite(const std::string& site) {
  auto machines = site_down_machines_.find(site);
  auto downed = site_down_services_.find(site);
  const bool had_machines =
      machines != site_down_machines_.end() && !machines->second.empty();
  const bool had_services =
      downed != site_down_services_.end() && !downed->second.empty();
  if (!had_machines && !had_services) return;  // nothing to restore
  ++stats_.sites_restored;
  RecordFault(false, "site restore " + site);
  if (had_machines) {
    restore_machines_(machines->second);
    stats_.machines_restored += machines->second.size();
    machines->second.clear();
  }
  if (had_services) {
    for (const std::string& name : downed->second) {
      auto it = services_.find(name);
      if (it == services_.end() || !it->second.down) continue;
      it->second.restart();
      it->second.down = false;
      ++stats_.services_restarted;
    }
    downed->second.clear();
  }
}

std::vector<std::string> FaultInjector::MatchServices(
    const std::string& glob) const {
  std::vector<std::string> out;
  for (const auto& [name, service] : services_) {
    if (GlobMatch(glob, name)) out.push_back(name);
  }
  return out;
}

}  // namespace actyp::fault
