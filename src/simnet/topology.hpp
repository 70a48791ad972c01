// Network topology model: hosts belong to sites; messages between hosts
// pay a latency sampled from the link between their sites plus a
// bandwidth term. Calibrated defaults:
//   - intra-site (LAN): 150 us +/- 50 us, 100 Mbit/s
//   - inter-site (WAN): 30 ms +/- 5 ms one-way, 10 Mbit/s
// The WAN default approximates the paper's Purdue (US) <-> UPC (Spain)
// link circa 2001.
//
// Hot callers resolve a host's site once (BindSite) and sample per site
// pair (SampleSiteLatency); the host-named calls are wrappers that look
// both sites up on every call.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/sim_time.hpp"

namespace actyp::simnet {

struct LinkSpec {
  SimDuration base_latency = 0;   // one-way
  SimDuration jitter = 0;         // uniform in [0, jitter]
  double bytes_per_us = 12.5;     // bandwidth (12.5 B/us = 100 Mbit/s)
};

class Topology {
 public:
  Topology();

  // Site management. Hosts default to site "local".
  void SetHostSite(const std::string& host, const std::string& site);
  [[nodiscard]] const std::string& SiteOf(const std::string& host) const;
  // SiteOf for a caller that keeps the reference: it stays valid for the
  // topology's lifetime and follows later SetHostSite calls. A host with
  // no site yet is bound to the default one.
  [[nodiscard]] const std::string& BindSite(const std::string& host);

  void SetIntraSiteLink(LinkSpec spec) { intra_site_ = spec; }
  void SetDefaultInterSiteLink(LinkSpec spec) { inter_site_ = spec; }
  // Directed override for a specific site pair (applied symmetrically).
  void SetLink(const std::string& site_a, const std::string& site_b,
               LinkSpec spec);

  // Samples the one-way latency for `bytes` from host a to host b.
  [[nodiscard]] SimDuration SampleLatency(const std::string& host_a,
                                          const std::string& host_b,
                                          std::size_t bytes, Rng& rng) const;
  // The same draw for two hosts whose sites the caller already knows:
  // `same_host` is loopback (no draw), otherwise the link between the
  // sites plus any latency penalty.
  [[nodiscard]] SimDuration SampleSiteLatency(bool same_host,
                                              const std::string& site_a,
                                              const std::string& site_b,
                                              std::size_t bytes,
                                              Rng& rng) const;

  // Lower bound on any latency SampleLatency can return between two
  // distinct sites: the link's base latency (jitter, bandwidth, and
  // penalties only add), floored at SampleLatency's 1 us minimum. This
  // is the LP scheduler's lookahead for the site pair.
  [[nodiscard]] SimDuration MinSiteLatency(const std::string& site_a,
                                           const std::string& site_b) const;

  // --- fault-injection hooks (driven by fault::FaultInjector) ---
  // Cuts (or heals) every link between two sites; "*" for either side
  // means every site. Messages across a cut link are dropped by the
  // network. Intra-host traffic is never partitioned.
  void SetPartition(const std::string& site_a, const std::string& site_b,
                    bool cut);
  [[nodiscard]] bool IsPartitioned(const std::string& host_a,
                                   const std::string& host_b) const;
  // Same check at site granularity (used by the directory-replica layer
  // to decide peer reachability without naming hosts).
  [[nodiscard]] bool IsSitePartitioned(const std::string& site_a,
                                       const std::string& site_b) const;

  // Adds `extra` one-way latency between two sites ("*" = every pair,
  // including intra-site). Setting 0 clears the penalty.
  void SetLatencyPenalty(const std::string& site_a, const std::string& site_b,
                         SimDuration extra);

  // Convenience factories used by benches.
  static Topology Lan();
  static Topology WanTwoSites(const std::string& client_site,
                              const std::string& server_site,
                              SimDuration one_way = Millis(30),
                              SimDuration jitter = Millis(5));

 private:
  [[nodiscard]] const LinkSpec& LinkBetween(const std::string& site_a,
                                            const std::string& site_b) const;
  // Canonical (sorted) key for the symmetric partition/penalty maps.
  [[nodiscard]] static std::pair<std::string, std::string> OrderedPair(
      const std::string& site_a, const std::string& site_b);

  LinkSpec intra_site_;
  LinkSpec inter_site_;
  std::unordered_map<std::string, std::string> host_site_;
  std::map<std::pair<std::string, std::string>, LinkSpec> links_;
  // Active faults: cut site pairs and per-pair extra latency (the "*"
  // wildcard is stored literally and matched in the lookup).
  std::set<std::pair<std::string, std::string>> partitions_;
  std::map<std::pair<std::string, std::string>, SimDuration> penalties_;
};

}  // namespace actyp::simnet
