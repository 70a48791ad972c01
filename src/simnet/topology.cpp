#include "simnet/topology.hpp"

#include <algorithm>

namespace actyp::simnet {
namespace {

const std::string& DefaultSite() {
  static const std::string kDefaultSite = "local";
  return kDefaultSite;
}

}  // namespace

Topology::Topology() {
  intra_site_ = LinkSpec{Micros(150), Micros(50), 12.5};
  inter_site_ = LinkSpec{Millis(30), Millis(5), 1.25};
}

void Topology::SetHostSite(const std::string& host, const std::string& site) {
  host_site_[host] = site;
}

const std::string& Topology::SiteOf(const std::string& host) const {
  auto it = host_site_.find(host);
  return it == host_site_.end() ? DefaultSite() : it->second;
}

const std::string& Topology::BindSite(const std::string& host) {
  // SetHostSite assigns into this entry, so the reference follows it.
  return host_site_.try_emplace(host, DefaultSite()).first->second;
}

void Topology::SetLink(const std::string& site_a, const std::string& site_b,
                       LinkSpec spec) {
  links_[{site_a, site_b}] = spec;
  links_[{site_b, site_a}] = spec;
}

const LinkSpec& Topology::LinkBetween(const std::string& site_a,
                                      const std::string& site_b) const {
  if (site_a == site_b) return intra_site_;
  auto it = links_.find({site_a, site_b});
  return it == links_.end() ? inter_site_ : it->second;
}

SimDuration Topology::SampleLatency(const std::string& host_a,
                                    const std::string& host_b,
                                    std::size_t bytes, Rng& rng) const {
  return SampleSiteLatency(host_a == host_b, SiteOf(host_a), SiteOf(host_b),
                           bytes, rng);
}

SimDuration Topology::SampleSiteLatency(bool same_host,
                                        const std::string& site_a,
                                        const std::string& site_b,
                                        std::size_t bytes, Rng& rng) const {
  if (same_host) {
    // Loopback: negligible, but keep event ordering strictly causal.
    return Micros(5);
  }
  const LinkSpec& link = LinkBetween(site_a, site_b);
  SimDuration latency = link.base_latency;
  if (link.jitter > 0) {
    latency += static_cast<SimDuration>(rng.NextDouble() *
                                        static_cast<double>(link.jitter));
  }
  if (link.bytes_per_us > 0) {
    latency += static_cast<SimDuration>(static_cast<double>(bytes) /
                                        link.bytes_per_us);
  }
  if (!penalties_.empty()) {
    // Most specific match wins: exact pair, then one-sided wildcard,
    // then the global {"*","*"} penalty.
    auto it = penalties_.find(OrderedPair(site_a, site_b));
    if (it == penalties_.end()) it = penalties_.find(OrderedPair(site_a, "*"));
    if (it == penalties_.end()) it = penalties_.find(OrderedPair(site_b, "*"));
    if (it == penalties_.end()) it = penalties_.find({"*", "*"});
    if (it != penalties_.end()) latency += it->second;
  }
  return std::max<SimDuration>(latency, Micros(1));
}

SimDuration Topology::MinSiteLatency(const std::string& site_a,
                                     const std::string& site_b) const {
  return std::max<SimDuration>(LinkBetween(site_a, site_b).base_latency,
                               Micros(1));
}

std::pair<std::string, std::string> Topology::OrderedPair(
    const std::string& site_a, const std::string& site_b) {
  return site_a <= site_b ? std::make_pair(site_a, site_b)
                          : std::make_pair(site_b, site_a);
}

void Topology::SetPartition(const std::string& site_a,
                            const std::string& site_b, bool cut) {
  if (cut) {
    partitions_.insert(OrderedPair(site_a, site_b));
  } else {
    partitions_.erase(OrderedPair(site_a, site_b));
  }
}

bool Topology::IsPartitioned(const std::string& host_a,
                             const std::string& host_b) const {
  if (partitions_.empty() || host_a == host_b) return false;
  return IsSitePartitioned(SiteOf(host_a), SiteOf(host_b));
}

bool Topology::IsSitePartitioned(const std::string& site_a,
                                 const std::string& site_b) const {
  if (partitions_.empty()) return false;
  if (partitions_.count(OrderedPair(site_a, site_b)) > 0) return true;
  // "*" cuts: against one named site, or between all distinct sites.
  if (partitions_.count(OrderedPair(site_a, "*")) > 0 ||
      partitions_.count(OrderedPair(site_b, "*")) > 0) {
    return true;
  }
  return site_a != site_b && partitions_.count({"*", "*"}) > 0;
}

void Topology::SetLatencyPenalty(const std::string& site_a,
                                 const std::string& site_b,
                                 SimDuration extra) {
  if (extra > 0) {
    penalties_[OrderedPair(site_a, site_b)] = extra;
  } else {
    penalties_.erase(OrderedPair(site_a, site_b));
  }
}

Topology Topology::Lan() { return Topology(); }

Topology Topology::WanTwoSites(const std::string& client_site,
                               const std::string& server_site,
                               SimDuration one_way, SimDuration jitter) {
  Topology topology;
  topology.SetLink(client_site, server_site,
                   LinkSpec{one_way, jitter, 1.25});
  return topology;
}

}  // namespace actyp::simnet
