// Fault-injected distributed monitoring: the channel's deterministic fault
// injector, the retry/dedup protocol under a fault matrix, and the
// protocol's figures pinned on one bench row.
//
// Everything here is driven by fixed seeds and virtual time, so each
// scenario is reproducible bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/channel.h"
#include "cluster/monitor.h"
#include "exact/exact_oracle.h"
#include "util/random.h"

namespace streamq {
namespace {

// ---------------------------------------------------------------- channel

TEST(FaultyChannelTest, PerfectChannelDeliversImmediatelyInOrder) {
  FaultyChannel ch(FaultSpec{}, 1);
  ch.Send(5, "alpha");
  ch.Send(5, "beta");
  EXPECT_TRUE(ch.Poll(4).empty());  // nothing due before send time
  const auto msgs = ch.Poll(5);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0], "alpha");
  EXPECT_EQ(msgs[1], "beta");
  EXPECT_TRUE(ch.Idle());
  EXPECT_EQ(ch.stats().sent, 2u);
  EXPECT_EQ(ch.stats().delivered, 2u);
  EXPECT_EQ(ch.stats().dropped, 0u);
  EXPECT_EQ(ch.stats().bytes_offered, 9u);
  EXPECT_EQ(ch.stats().bytes_delivered, 9u);
}

TEST(FaultyChannelTest, DropRateIsRespectedStatistically) {
  FaultSpec spec;
  spec.drop = 0.3;
  FaultyChannel ch(spec, 42);
  const int kSends = 4000;
  for (int i = 0; i < kSends; ++i) ch.Send(i, "x");
  size_t delivered = 0;
  for (int i = 0; i < kSends; ++i) delivered += ch.Poll(i).size();
  EXPECT_EQ(ch.stats().dropped + delivered, static_cast<size_t>(kSends));
  // 0.3 +- 5 sigma on 4000 trials.
  EXPECT_NEAR(static_cast<double>(ch.stats().dropped) / kSends, 0.3, 0.04);
}

TEST(FaultyChannelTest, DuplicatesProduceExtraCopies) {
  FaultSpec spec;
  spec.duplicate = 1.0;
  FaultyChannel ch(spec, 7);
  ch.Send(0, "msg");
  const auto msgs = ch.Poll(0);
  EXPECT_EQ(msgs.size(), 2u);
  EXPECT_EQ(ch.stats().duplicated, 1u);
}

TEST(FaultyChannelTest, CorruptionFlipsExactlyOneByte) {
  FaultSpec spec;
  spec.corrupt = 1.0;
  FaultyChannel ch(spec, 9);
  const std::string original(64, 'A');
  ch.Send(0, original);
  const auto msgs = ch.Poll(0);
  ASSERT_EQ(msgs.size(), 1u);
  ASSERT_EQ(msgs[0].size(), original.size());
  size_t differing = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    if (msgs[0][i] != original[i]) ++differing;
  }
  EXPECT_EQ(differing, 1u);
  EXPECT_EQ(ch.stats().corrupted, 1u);
}

TEST(FaultyChannelTest, ReorderHoldsACopyBack) {
  FaultSpec spec;
  spec.reorder = 1.0;
  spec.reorder_extra = 16;
  FaultyChannel ch(spec, 11);
  ch.Send(0, "held");
  EXPECT_TRUE(ch.Poll(0).empty());  // held back
  size_t delivered = 0;
  for (uint64_t t = 1; t <= 1 + spec.reorder_extra; ++t) {
    delivered += ch.Poll(t).size();
  }
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(ch.stats().reordered, 1u);
}

TEST(FaultyChannelTest, SameSeedSameFaults) {
  FaultSpec spec;
  spec.drop = 0.4;
  spec.duplicate = 0.2;
  spec.corrupt = 0.3;
  spec.min_delay = 1;
  spec.max_delay = 9;
  auto run = [&](uint64_t seed) {
    FaultyChannel ch(spec, seed);
    std::vector<std::string> out;
    for (int i = 0; i < 500; ++i) {
      ch.Send(i, std::string(16, static_cast<char>('a' + i % 26)));
      for (std::string& m : ch.Poll(i)) out.push_back(std::move(m));
    }
    for (int i = 500; i < 600; ++i) {
      for (std::string& m : ch.Poll(i)) out.push_back(std::move(m));
    }
    return out;
  };
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(124));  // and the seed actually matters
}

// ----------------------------------------------------- protocol vs oracle

struct Scenario {
  const char* name;
  FaultSpec faults;  // applied to both directions
};

std::vector<Scenario> FaultMatrix() {
  std::vector<Scenario> rows;
  for (double drop : {0.0, 0.1, 0.3, 0.5}) {
    FaultSpec f;
    f.drop = drop;
    f.min_delay = 1;
    f.max_delay = 8;
    rows.push_back({"drop", f});
  }
  {
    FaultSpec f;
    f.duplicate = 0.5;
    f.min_delay = 1;
    f.max_delay = 8;
    rows.push_back({"duplicate", f});
  }
  {
    FaultSpec f;
    f.reorder = 0.5;
    f.reorder_extra = 32;
    f.min_delay = 1;
    f.max_delay = 8;
    rows.push_back({"reorder", f});
  }
  {
    FaultSpec f;
    f.corrupt = 0.3;
    f.min_delay = 1;
    f.max_delay = 8;
    rows.push_back({"corrupt", f});
  }
  {
    FaultSpec f;  // everything at once
    f.drop = 0.25;
    f.duplicate = 0.25;
    f.reorder = 0.25;
    f.corrupt = 0.25;
    f.min_delay = 1;
    f.max_delay = 12;
    rows.push_back({"combined", f});
  }
  return rows;
}

// Worst-case rank error of a coordinator answer: the local summaries carry
// eps/2 each, and un-delivered suffixes add StalenessBound() whole ranks.
void ExpectWithinBound(DistributedQuantileMonitor& monitor,
                       const std::vector<uint64_t>& observed, double eps,
                       const std::string& context) {
  if (observed.empty()) return;
  ExactOracle oracle(observed);
  const double n = static_cast<double>(observed.size());
  const double bound =
      eps * n + static_cast<double>(monitor.StalenessBound()) + 1.0;
  for (double phi : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const uint64_t exact_q = oracle.Quantile(phi);
    const auto interval = oracle.RankInterval(exact_q);
    const int64_t est = monitor.EstimateRank(exact_q);
    const double lo = static_cast<double>(interval.first) - bound;
    const double hi = static_cast<double>(interval.second) + bound;
    EXPECT_GE(static_cast<double>(est), lo)
        << context << " phi=" << phi << " staleness="
        << monitor.StalenessBound();
    EXPECT_LE(static_cast<double>(est), hi)
        << context << " phi=" << phi << " staleness="
        << monitor.StalenessBound();
  }
}

TEST(FaultMatrixTest, CoordinatorStaysWithinEpsPlusStaleness) {
  const double eps = 0.05;
  const int kSites = 3;
  const int kN = 3000;
  for (const Scenario& scenario : FaultMatrix()) {
    for (uint64_t seed : {1u, 7u, 23u}) {
      MonitorOptions options;
      options.data_faults = scenario.faults;
      options.ack_faults = scenario.faults;
      options.seed = seed;
      DistributedQuantileMonitor monitor(kSites, eps, -1.0, options);
      Xoshiro256 rng(seed * 1000 + 17);
      std::vector<uint64_t> observed;
      observed.reserve(kN);
      const std::string context = std::string(scenario.name) + " drop=" +
                                  std::to_string(scenario.faults.drop) +
                                  " seed=" + std::to_string(seed);
      for (int i = 0; i < kN; ++i) {
        const int site = static_cast<int>(rng.Below(kSites));
        // Skewed per-site ranges so the union genuinely needs all sites.
        const uint64_t value =
            static_cast<uint64_t>(site) * 100'000 + rng.Below(100'000);
        monitor.Observe(site, value);
        observed.push_back(value);
        if ((i + 1) % 1000 == 0) {
          // Mid-stream: answers may be stale, but never beyond the bound
          // the monitor itself reports.
          ExpectWithinBound(monitor, observed, eps, context + " mid");
        }
      }
      EXPECT_EQ(monitor.GlobalCount(), static_cast<uint64_t>(kN)) << context;
      // With retries, even 50% drop in both directions quiesces.
      EXPECT_TRUE(monitor.Quiesce()) << context;
      EXPECT_EQ(monitor.StalenessBound(), 0u) << context;
      EXPECT_EQ(monitor.coordinator().ReportedCount(),
                static_cast<uint64_t>(kN))
          << context << ": dedup must keep the reported count exact";
      ExpectWithinBound(monitor, observed, eps, context + " final");
      if (scenario.faults.corrupt > 0.0) {
        // The injector did corrupt shipments, and every one was caught by
        // the frame check rather than accepted.
        EXPECT_GT(monitor.data_channel_stats().corrupted, 0u) << context;
        EXPECT_GT(monitor.coordinator().stats().rejected_corrupt, 0u)
            << context;
      }
    }
  }
}

TEST(FaultMatrixTest, HeavyDuplicationKeepsCountsExact) {
  FaultSpec f;
  f.duplicate = 0.9;
  MonitorOptions options;
  options.data_faults = f;
  options.ack_faults = f;
  options.seed = 5;
  DistributedQuantileMonitor monitor(2, 0.1, -1.0, options);
  for (int i = 0; i < 2000; ++i) {
    monitor.Observe(i % 2, static_cast<uint64_t>(i));
  }
  ASSERT_TRUE(monitor.Quiesce());
  EXPECT_GT(monitor.data_channel_stats().duplicated, 0u);
  EXPECT_GT(monitor.coordinator().stats().rejected_stale, 0u);
  EXPECT_EQ(monitor.GlobalCount(), 2000u);
  EXPECT_EQ(monitor.coordinator().ReportedCount(), 2000u);
}

TEST(FaultMatrixTest, StalenessBoundShrinksOnQuiesce) {
  FaultSpec f;
  f.drop = 0.5;
  f.min_delay = 2;
  f.max_delay = 16;
  MonitorOptions options;
  options.data_faults = f;
  options.ack_faults = f;
  options.seed = 3;
  DistributedQuantileMonitor monitor(4, 0.05, -1.0, options);
  Xoshiro256 rng(99);
  for (int i = 0; i < 4000; ++i) {
    monitor.Observe(static_cast<int>(rng.Below(4)), rng.Below(1 << 20));
  }
  ASSERT_TRUE(monitor.Quiesce());
  EXPECT_EQ(monitor.StalenessBound(), 0u);
  EXPECT_GT(monitor.RetransmitCount(), 0u);  // retries actually happened
}

TEST(FaultMatrixTest, DeterministicAcrossRuns) {
  auto run = [] {
    FaultSpec f;
    f.drop = 0.3;
    f.duplicate = 0.2;
    f.corrupt = 0.2;
    f.min_delay = 1;
    f.max_delay = 10;
    MonitorOptions options;
    options.data_faults = f;
    options.ack_faults = f;
    options.seed = 77;
    DistributedQuantileMonitor monitor(3, 0.05, -1.0, options);
    Xoshiro256 rng(7);
    for (int i = 0; i < 2000; ++i) {
      monitor.Observe(static_cast<int>(rng.Below(3)), rng.Below(1 << 16));
    }
    monitor.Quiesce();
    return std::tuple(monitor.CommunicationBytes(), monitor.ShipmentCount(),
                      monitor.RetransmitCount(),
                      monitor.coordinator().stats().rejected_corrupt,
                      monitor.Query(0.5));
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------------- pinned figures

// bench_faulty_channel's combined(0.2) row at n = 20,000, then Quiesce().
// Every figure is the protocol's output under fixed seeds, so any change
// to the shipping rules, the frames or the coordinator's ladder moves
// some of them. Data bytes carry the 24-byte header of each shipment's
// nested sketch frame on top of the figures of the monitor's own frames
// (1,330,680 + 24 x 1,586).
TEST(MonitorProtocolTest, CombinedFaultRowIsPinned) {
  FaultSpec f;
  f.drop = 0.2;
  f.duplicate = 0.2;
  f.reorder = 0.2;
  f.corrupt = 0.2;
  f.min_delay = 1;
  f.max_delay = 12;
  MonitorOptions options;
  options.data_faults = f;
  options.ack_faults = f;
  options.seed = 17;
  DistributedQuantileMonitor monitor(4, 0.05, -1.0, options);
  Xoshiro256 rng(42);
  for (int i = 0; i < 20'000; ++i) {
    const int site = static_cast<int>(rng.Below(4));
    monitor.Observe(site, static_cast<uint64_t>(site) * 1'000'000 +
                              rng.Below(1'000'000));
  }
  EXPECT_EQ(monitor.StalenessBound(), 270u);
  ASSERT_TRUE(monitor.Quiesce());
  EXPECT_EQ(monitor.now(), 20'513u);

  EXPECT_EQ(monitor.data_channel_stats().sent, 1'586u);
  EXPECT_EQ(monitor.ShipmentCount(), 1'586u);
  EXPECT_EQ(monitor.RetransmitCount(), 904u);
  EXPECT_EQ(monitor.CommunicationBytes(), 1'368'744u);
  EXPECT_EQ(monitor.ack_channel_stats().bytes_offered, 48'120u);

  const auto& cs = monitor.coordinator().stats();
  EXPECT_EQ(cs.accepted, 942u);
  EXPECT_EQ(cs.rejected_corrupt, 311u);
  EXPECT_EQ(cs.rejected_stale, 261u);
  EXPECT_EQ(cs.rejected_malformed, 0u);
  EXPECT_EQ(cs.rejected_incompatible, 0u);
  EXPECT_EQ(cs.acks_sent, 1'203u);

  EXPECT_EQ(monitor.Query(0.01), 69'870u);
  EXPECT_EQ(monitor.Query(0.25), 1'048'405u);
  EXPECT_EQ(monitor.Query(0.5), 2'034'355u);
  EXPECT_EQ(monitor.Query(0.75), 3'044'828u);
  EXPECT_EQ(monitor.Query(0.99), 3'999'913u);
  EXPECT_EQ(monitor.EstimateRank(2'000'000), 9'963);
}

}  // namespace
}  // namespace streamq
