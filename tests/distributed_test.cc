// Tests for the distributed continuous quantile monitor.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/monitor.h"
#include "exact/exact_oracle.h"
#include "stream/generators.h"
#include "util/random.h"

namespace streamq {
namespace {

TEST(DistributedMonitorTest, SingleSiteMatchesLocalSummary) {
  DistributedQuantileMonitor monitor(1, 0.02);
  DatasetSpec spec;
  spec.n = 50'000;
  spec.log_universe = 20;
  spec.seed = 3;
  const auto data = GenerateDataset(spec);
  for (uint64_t v : data) monitor.Observe(0, v);
  const ExactOracle oracle(data);
  for (double phi : {0.1, 0.5, 0.9}) {
    // eps/2 summary error + up to theta = eps/2 staleness, with a little
    // slack for the coordinator normalising against its (stale) count.
    EXPECT_LE(oracle.QuantileError(monitor.Query(phi), phi), 1.2 * 0.02);
  }
}

TEST(DistributedMonitorTest, UnionAccuracyAcrossSkewedSites) {
  // Sites see disjoint value ranges; the coordinator must still answer the
  // union correctly (a per-site average would be badly wrong).
  const int kSites = 8;
  const double eps = 0.02;
  DistributedQuantileMonitor monitor(kSites, eps);
  Xoshiro256 rng(5);
  std::vector<uint64_t> all;
  for (int round = 0; round < 40'000; ++round) {
    const int site = static_cast<int>(rng.Below(kSites));
    const uint64_t value = site * 100'000 + rng.Below(100'000);
    monitor.Observe(site, value);
    all.push_back(value);
  }
  const ExactOracle oracle(all);
  for (double phi : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    EXPECT_LE(oracle.QuantileError(monitor.Query(phi), phi), eps)
        << "phi=" << phi;
  }
}

TEST(DistributedMonitorTest, AnytimeQueriesStayAccurate) {
  const int kSites = 4;
  const double eps = 0.05;
  DistributedQuantileMonitor monitor(kSites, eps);
  DatasetSpec spec;
  spec.n = 60'000;
  spec.log_universe = 16;
  spec.seed = 9;
  const auto data = GenerateDataset(spec);
  std::vector<uint64_t> seen;
  Xoshiro256 rng(2);
  for (size_t i = 0; i < data.size(); ++i) {
    monitor.Observe(static_cast<int>(rng.Below(kSites)), data[i]);
    seen.push_back(data[i]);
    if ((i + 1) % 15'000 == 0) {
      const ExactOracle oracle(seen);
      for (double phi : {0.25, 0.5, 0.75}) {
        // eps plus the staleness slack the protocol allows mid-flight.
        EXPECT_LE(oracle.QuantileError(monitor.Query(phi), phi), 1.5 * eps)
            << "at " << (i + 1);
      }
    }
  }
}

TEST(DistributedMonitorTest, CommunicationWellBelowRawForwarding) {
  const int kSites = 4;
  DistributedQuantileMonitor monitor(kSites, 0.05);
  DatasetSpec spec;
  spec.n = 1'000'000;
  spec.log_universe = 24;
  spec.seed = 11;
  const auto data = GenerateDataset(spec);
  Xoshiro256 rng(7);
  for (uint64_t v : data) {
    monitor.Observe(static_cast<int>(rng.Below(kSites)), v);
  }
  const size_t raw_bytes = data.size() * 4;  // forwarding every element
  EXPECT_LT(monitor.CommunicationBytes(), raw_bytes / 2);
  EXPECT_GT(monitor.ShipmentCount(), static_cast<size_t>(kSites));
}

TEST(DistributedMonitorTest, CountsAndMemory) {
  DistributedQuantileMonitor monitor(3, 0.1);
  for (int i = 0; i < 1'000; ++i) monitor.Observe(i % 3, i);
  EXPECT_EQ(monitor.GlobalCount(), 1'000u);
  EXPECT_GT(monitor.CoordinatorMemoryBytes(), 0u);
  EXPECT_EQ(monitor.num_sites(), 3);
}

TEST(DistributedMonitorTest, EmptyCoordinatorIsSafe) {
  DistributedQuantileMonitor monitor(2, 0.1);
  EXPECT_EQ(monitor.Query(0.5), 0u);
  EXPECT_EQ(monitor.EstimateRank(100), 0);
}

}  // namespace
}  // namespace streamq
