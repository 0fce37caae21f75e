// Continuous distributed monitoring: 8 CDN edge sites observe request
// latencies; a central coordinator answers global latency quantiles at any
// moment while the sites ship only compact summary snapshots (never raw
// events). Reproduces the setting of the paper's related work on holistic
// aggregates in a networked world (Cormode et al., SIGMOD'05).
//
// This is the *monitoring* tier: sites observe into lightweight local
// summaries and the coordinator's view is approximate. For the cluster
// *data path* -- full durable pipelines per node, mergeable shipments
// with exact-count bounds, node failover -- see cluster_ingest.cpp.

#include <cmath>
#include <cstdio>

#include "cluster/monitor.h"
#include "util/random.h"

int main() {
  using namespace streamq;

  constexpr int kSites = 8;
  DistributedQuantileMonitor monitor(kSites, /*eps=*/0.04);
  Xoshiro256 rng(17);

  // Each site has its own base latency (geography) and traffic share.
  double base_us[kSites];
  for (int s = 0; s < kSites; ++s) base_us[s] = 3'000 + 2'500 * s;

  constexpr uint64_t kEvents = 8'000'000;
  for (uint64_t t = 0; t < kEvents; ++t) {
    const int site = static_cast<int>(rng.Below(kSites));
    const double latency =
        base_us[site] * std::exp(0.4 * rng.NextGaussian());
    monitor.Observe(site, static_cast<uint64_t>(latency));

    if ((t + 1) % 1'600'000 == 0) {
      std::printf(
          "after %7llu events: p50=%6lluus p95=%6lluus p99=%6lluus | "
          "comm %6.1f KB (%zu shipments) vs raw %6.1f KB\n",
          static_cast<unsigned long long>(t + 1),
          static_cast<unsigned long long>(monitor.Query(0.50)),
          static_cast<unsigned long long>(monitor.Query(0.95)),
          static_cast<unsigned long long>(monitor.Query(0.99)),
          monitor.CommunicationBytes() / 1024.0, monitor.ShipmentCount(),
          (t + 1) * 4 / 1024.0);
    }
  }
  std::printf(
      "\ncoordinator state: %.1f KB across %d sites; every answer is within "
      "4%% rank error of the true union quantile.\n",
      monitor.CoordinatorMemoryBytes() / 1024.0, monitor.num_sites());
  return 0;
}
