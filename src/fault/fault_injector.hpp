// FaultInjector: arms a FaultPlan against a running discrete-event
// simulation. Every event is scheduled on the sim kernel at plan time,
// so injection is part of the deterministic event order — two runs with
// the same seed and plan replay the same faults against the same
// simulation state.
//
// The injector drives three layers:
//   - the network: loss windows (SimNetwork::SetLossProbability),
//     latency spikes and partitions (Topology fault hooks);
//   - the fleet: machine crash/restore via hooks the scenario installs
//     (white-pages state flips that pools observe on their next sweep);
//   - the services: named nodes (query managers, pool managers,
//     precreated pools) registered with crash/restart callbacks, plus a
//     directory-driven hook that kills a random live pool instance —
//     the trigger for on-demand pool re-creation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "db/machine.hpp"
#include "fault/fault_plan.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"

namespace actyp::obs {
class FlightRecorder;
}  // namespace actyp::obs

namespace actyp::fault {

struct FaultStats {
  std::uint64_t loss_windows_opened = 0;
  std::uint64_t loss_windows_closed = 0;
  std::uint64_t latency_spikes = 0;
  std::uint64_t partitions_cut = 0;
  std::uint64_t partitions_healed = 0;
  std::uint64_t machines_crashed = 0;
  std::uint64_t machines_restored = 0;
  std::uint64_t services_crashed = 0;
  std::uint64_t services_restarted = 0;
  std::uint64_t pools_killed = 0;
  std::uint64_t churn_ticks = 0;
  std::uint64_t sites_crashed = 0;
  std::uint64_t sites_restored = 0;
};

class FaultInjector {
 public:
  // Crashes up to `n` currently-up machines, returning the victims.
  using CrashMachinesFn =
      std::function<std::vector<db::MachineId>(std::size_t n, Rng& rng)>;
  // Brings previously-crashed machines back up.
  using RestoreMachinesFn =
      std::function<void(const std::vector<db::MachineId>&)>;
  // Kills one random live pool instance; returns false when none exist.
  using KillPoolFn = std::function<bool(Rng& rng)>;
  // Crashes every up machine assigned to `site`, returning the victims.
  using CrashSiteMachinesFn =
      std::function<std::vector<db::MachineId>(const std::string& site)>;

  FaultInjector(simnet::SimKernel* kernel, simnet::SimNetwork* network,
                std::uint64_t seed);

  void SetMachineHooks(CrashMachinesFn crash, RestoreMachinesFn restore);
  void SetPoolHook(KillPoolFn kill);
  // Correlated whole-site faults: machine selection by site (restore
  // reuses the machine-restore hook). Services join a site crash through
  // the site they were registered with.
  void SetSiteHook(CrashSiteMachinesFn crash_site);

  // Registers a service node that crash/churn events can target by name
  // or glob, and that site-crash events take down when `site` matches.
  // `crash` must make the service unreachable; `restart` must bring a
  // fresh instance back.
  void RegisterService(const std::string& name, std::function<void()> crash,
                       std::function<void()> restart,
                       const std::string& site = "");

  // Declares a site name events may reference. Validation is opt-in:
  // once any site is registered, Arm rejects plans whose site-crash/
  // site-restore/latency/partition events name an unknown site instead
  // of silently no-opping them. Injectors that never register sites
  // (bare-injector tests) keep the unchecked legacy behavior.
  void RegisterSite(const std::string& site);

  // Schedules every event of `plan` on the kernel. May be called more
  // than once (plans accumulate). Fails when an event needs a hook that
  // was never installed, so misconfigured scenarios fail loudly.
  Status Arm(const FaultPlan& plan);

  // Flight recorder for strike/recovery events (not owned; must outlive
  // the injector). Null — the default — records nothing; recording
  // draws nothing, so attaching is invisible to replay.
  void SetRecorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  struct Service {
    std::function<void()> crash;
    std::function<void()> restart;
    std::string site;
    bool down = false;
  };

  Status CheckHooks(const FaultEvent& event) const;
  void ArmLoss(const FaultEvent& event);
  void ArmLatency(const FaultEvent& event);
  void ArmPartition(const FaultEvent& event);
  void ArmCrash(const FaultEvent& event);
  void ArmChurn(const FaultEvent& event);

  // One crash of `event`'s target; schedules the matching recovery.
  void Strike(const FaultEvent& event);
  void ChurnTick(const FaultEvent& event, SimDuration interval);
  void CrashMachines(std::size_t count, SimDuration downtime);
  void CrashService(const std::string& glob, SimDuration downtime,
                    bool pick_one);
  void CrashSite(const std::string& site, SimDuration downtime);
  void RestoreSite(const std::string& site);

  [[nodiscard]] std::vector<std::string> MatchServices(
      const std::string& glob) const;

  // Appends one strike/recovery event (no-op when no recorder is set).
  void RecordFault(bool strike, const std::string& detail);

  using SitePair = std::pair<std::string, std::string>;
  [[nodiscard]] static SitePair MakeSitePair(const FaultEvent& event);

  simnet::SimKernel* kernel_;
  simnet::SimNetwork* network_;
  Rng rng_;
  CrashMachinesFn crash_machines_;
  RestoreMachinesFn restore_machines_;
  KillPoolFn kill_pool_;
  CrashSiteMachinesFn crash_site_machines_;
  std::map<std::string, Service> services_;
  std::set<std::string> known_sites_;
  // What each in-progress site crash took down, so a site-restore (or
  // the downtime timer) brings back exactly that set — machines or
  // services individually churned down stay down.
  std::map<std::string, std::vector<db::MachineId>> site_down_machines_;
  std::map<std::string, std::vector<std::string>> site_down_services_;
  // Overlap bookkeeping, so concurrent windows of one kind compose
  // instead of the first close clobbering a still-open window:
  // loss windows form a stack (latest open wins, closing restores the
  // next one down or the base rate), latency spikes on a pair sum, and
  // partitions on a pair heal only when every cut has healed.
  std::uint64_t next_window_id_ = 0;
  double base_loss_ = 0.0;
  std::vector<std::pair<std::uint64_t, double>> open_loss_;
  std::map<SitePair, SimDuration> open_latency_;
  std::map<SitePair, int> open_partitions_;
  obs::FlightRecorder* recorder_ = nullptr;
  FaultStats stats_;
};

}  // namespace actyp::fault
