// Cluster tier behaviour: coordinator merge accuracy, the GKArray union
// path, convergence under channel faults, partial-answer semantics with a
// node down (for every mergeable algorithm), staleness probing, and epoch
// resync on restart.
// The full crash matrix (armed storage crash points x channel faults)
// lives in cluster_fault_matrix_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/wire.h"
#include "durability/storage.h"
#include "exact/exact_oracle.h"
#include "obs/metrics.h"
#include "quantile/cash_register.h"
#include "quantile/factory.h"
#include "quantile/weighted_sample.h"
#include "stream/generators.h"
#include "util/random.h"

namespace streamq::cluster {
namespace {

constexpr double kEps = 0.05;
// Randomized summaries meet eps per query with constant probability; the
// fixed-seed streams here are checked at 3x slack like the rest of the
// suite.
constexpr double kSlack = 3 * kEps;

const std::vector<double>& TestPhis() {
  static const std::vector<double> phis = {0.01, 0.1, 0.25, 0.5,
                                           0.75, 0.9, 0.99};
  return phis;
}

ClusterOptions BaseOptions(int nodes, Algorithm algorithm) {
  ClusterOptions options;
  options.nodes = nodes;
  options.node_pipeline.sketch.algorithm = algorithm;
  options.node_pipeline.sketch.eps = kEps;
  options.node_pipeline.sketch.log_universe = 16;
  options.node_pipeline.sketch.seed = 7;
  options.node_pipeline.shards = 2;
  options.node_pipeline.ring_capacity = 256;
  options.node_pipeline.batch_size = 64;
  options.node_pipeline.publish_interval = 256;
  options.theta = 0.05;
  options.retry = RetryPolicy{8, 256};
  options.stale_after = 256;
  options.probe = RetryPolicy{16, 256};
  options.seed = 5;
  return options;
}

std::vector<uint64_t> TestData(uint64_t n, uint64_t seed) {
  DatasetSpec spec;
  spec.distribution = Distribution::kUniform;
  spec.n = n;
  spec.log_universe = 16;
  spec.seed = seed;
  return GenerateDataset(spec);
}

TEST(ClusterTest, MergedAnswersMatchOracleOverPerfectChannels) {
  auto cluster = QuantileCluster::Create(BaseOptions(3, Algorithm::kRandom));
  ASSERT_NE(cluster, nullptr);
  const std::vector<uint64_t> data = TestData(4000, 21);
  for (uint64_t v : data) EXPECT_GE(cluster->Append(v), 0);
  ASSERT_TRUE(cluster->Quiesce());
  EXPECT_EQ(cluster->StalenessBound(), 0u);
  EXPECT_EQ(cluster->coordinator().ReportedCount(), data.size());
  const ExactOracle oracle(data);
  for (double phi : TestPhis()) {
    const ClusterAnswer answer = cluster->Query(phi);
    EXPECT_EQ(answer.nodes_merged, 3);
    EXPECT_FALSE(answer.partial);
    EXPECT_EQ(answer.reported_count, data.size());
    EXPECT_LE(oracle.QuantileError(answer.value, phi), kSlack) << phi;
  }
  // Rank estimates live on the same merged scope.
  const uint64_t median = cluster->Query(0.5).value;
  const ClusterAnswer rank = cluster->Rank(median);
  EXPECT_EQ(rank.nodes_merged, 3);
  const int64_t true_rank = oracle.Rank(median);
  EXPECT_NEAR(static_cast<double>(rank.value),
              static_cast<double>(true_rank),
              kSlack * static_cast<double>(data.size()) + 1.0);
}

std::string Shipment(uint32_t node, uint64_t epoch, uint64_t count,
                     std::string sketch_frame) {
  ClusterShipment shipment;
  shipment.node = node;
  shipment.epoch = epoch;
  shipment.count = count;
  shipment.sketch_frame = std::move(sketch_frame);
  return EncodeShipment(shipment);
}

// GKArray cannot merge, so a GKArray coordinator answers from the weighted
// union of its nodes' (v, g) tuples: exactly what a WeightedSampleView over
// the same tuples answers. The defence ladder is the merge path's.
TEST(ClusterCoordinatorTest, GkArrayUnionMatchesWeightedSampleView) {
  ClusterCoordinatorOptions options;
  options.nodes = 3;
  options.sketch.algorithm = Algorithm::kGkArray;
  options.sketch.eps = 0.025;
  ClusterCoordinator coordinator(options);
  FaultyChannel acks(FaultSpec{}, 1);

  // Three nodes over disjoint value ranges, so a per-node answer would be
  // badly wrong for the union.
  Xoshiro256 rng(3);
  std::vector<WeightedElement<uint64_t>> tuples;
  std::vector<std::string> frames;
  uint64_t total = 0;
  for (uint32_t node = 0; node < 3; ++node) {
    GkArray summary(0.025);
    for (uint64_t i = 0; i < 2'000 + 700 * node; ++i) {
      summary.Insert(node * 1'000'000 + rng.Below(1'000'000));
    }
    summary.impl().ForEachTuple([&](uint64_t v, int64_t g, int64_t) {
      tuples.push_back({v, g});
    });
    total += summary.Count();
    frames.push_back(summary.Serialize());
    coordinator.HandleShipment(
        Shipment(node, 1, summary.Count(), frames.back()), 1, acks);
  }
  EXPECT_EQ(coordinator.stats().accepted, 3u);
  EXPECT_EQ(coordinator.stats().acks_sent, 3u);

  const WeightedSampleView<uint64_t> expected(tuples);
  const auto check_answers = [&] {
    for (double phi : TestPhis()) {
      const ClusterAnswer answer = coordinator.Query(phi, 1);
      EXPECT_EQ(answer.nodes_merged, 3);
      EXPECT_FALSE(answer.partial);
      EXPECT_EQ(answer.reported_count, total);
      EXPECT_EQ(answer.value,
                expected.Quantile(
                    phi * static_cast<double>(expected.TotalWeight())))
          << phi;
    }
    for (uint64_t v : {0u, 999'999u, 1'000'000u, 1'500'000u, 2'400'000u,
                       9'000'000u}) {
      EXPECT_EQ(coordinator.Rank(v, 1).value,
                static_cast<uint64_t>(expected.EstimateRank(v)))
          << v;
    }
  };
  check_answers();

  // A repeated epoch is stale and re-acked with the node's horizon.
  acks.Poll(1);
  coordinator.HandleShipment(Shipment(0, 1, 2'000, frames[0]), 2, acks);
  EXPECT_EQ(coordinator.stats().rejected_stale, 1u);
  EXPECT_EQ(coordinator.stats().acks_sent, 4u);
  const std::vector<std::string> reacks = acks.Poll(2);
  ASSERT_EQ(reacks.size(), 1u);
  AckFrame ack;
  ASSERT_TRUE(DecodeAck(reacks[0], &ack));
  EXPECT_EQ(ack.node, 0u);
  EXPECT_EQ(ack.seq, 1u);

  // A flipped byte fails the frame check.
  std::string flipped = Shipment(1, 2, 2'700, frames[1]);
  const size_t mid = flipped.size() / 2;
  flipped[mid] = static_cast<char>(flipped[mid] ^ 0x5A);
  coordinator.HandleShipment(flipped, 3, acks);
  EXPECT_EQ(coordinator.stats().rejected_corrupt, 1u);

  // A count that does not match the decoded summary is malformed.
  coordinator.HandleShipment(Shipment(2, 2, 3'401, frames[2]), 3, acks);
  EXPECT_EQ(coordinator.stats().rejected_malformed, 1u);

  // A mergeable sketch is not what this coordinator answers from.
  SketchConfig random_config;
  random_config.algorithm = Algorithm::kRandom;
  random_config.eps = 0.025;
  std::unique_ptr<QuantileSketch> random = MakeSketch(random_config);
  for (uint64_t v = 0; v < 1'000; ++v) random->Insert(v);
  const std::string random_frame = SerializeSketch(*random);
  coordinator.HandleShipment(Shipment(0, 2, 1'000, random_frame), 3, acks);
  EXPECT_EQ(coordinator.stats().rejected_incompatible, 1u);

  // Nothing rejected touched the accepted state.
  EXPECT_EQ(coordinator.stats().accepted, 3u);
  check_answers();

  // And a GKArray is not what a Random coordinator merges.
  ClusterCoordinatorOptions random_options;
  random_options.nodes = 1;
  random_options.sketch = random_config;
  ClusterCoordinator merging(random_options);
  merging.HandleShipment(Shipment(0, 1, 2'000, frames[0]), 1, acks);
  EXPECT_EQ(merging.stats().rejected_incompatible, 1u);
  merging.HandleShipment(Shipment(0, 1, 1'000, random_frame), 1, acks);
  EXPECT_EQ(merging.stats().accepted, 1u);
}

TEST(ClusterTest, ConvergesUnderLossyChannels) {
  ClusterOptions options = BaseOptions(2, Algorithm::kRandom);
  options.data_faults.drop = 0.1;
  options.data_faults.duplicate = 0.1;
  options.data_faults.reorder = 0.1;
  options.data_faults.corrupt = 0.1;
  options.data_faults.min_delay = 1;
  options.data_faults.max_delay = 16;
  options.ack_faults = options.data_faults;
  auto cluster = QuantileCluster::Create(options);
  ASSERT_NE(cluster, nullptr);
  const std::vector<uint64_t> data = TestData(3000, 33);
  for (uint64_t v : data) cluster->Append(v);
  ASSERT_TRUE(cluster->Quiesce());
  EXPECT_EQ(cluster->StalenessBound(), 0u);
  EXPECT_EQ(cluster->coordinator().ReportedCount(), data.size());
  const ExactOracle oracle(data);
  for (double phi : TestPhis()) {
    EXPECT_LE(oracle.QuantileError(cluster->Query(phi).value, phi), kSlack)
        << phi;
  }
  // The channel mix must actually have exercised the defence ladder.
  const ClusterCoordinatorStats& stats = cluster->coordinator().stats();
  EXPECT_GT(stats.rejected_corrupt + stats.rejected_stale, 0u);
  EXPECT_GT(stats.accepted, 0u);
}

// The partial-answer satellite: with one node down, kLiveOnly answers must
// sit within the merged eps*n bound of the SURVIVORS' true union stream,
// flag themselves partial, and report the dead node's staleness -- for
// every algorithm the pipeline can run (all the mergeable ones).
TEST(ClusterTest, PartialAnswersCoverSurvivorsForEveryMergeableAlgorithm) {
  for (Algorithm algorithm :
       {Algorithm::kRandom, Algorithm::kMrl99, Algorithm::kFastQDigest,
        Algorithm::kDcm, Algorithm::kDcs}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    auto cluster = QuantileCluster::Create(BaseOptions(3, algorithm));
    ASSERT_NE(cluster, nullptr);
    const std::vector<uint64_t> data = TestData(3000, 44);
    // Phase 1: all nodes up.
    for (size_t i = 0; i < 2000; ++i) cluster->Append(data[i]);
    ASSERT_TRUE(cluster->Quiesce());
    const uint64_t dead_known = cluster->coordinator().KnownCount(1);
    EXPECT_GT(dead_known, 0u);

    // Phase 2: node 1 dies; its share of the tail is dropped at ingress.
    cluster->KillNode(1);
    for (size_t i = 2000; i < data.size(); ++i) cluster->Append(data[i]);
    ASSERT_TRUE(cluster->Quiesce());

    // The survivors' true union stream is exactly what was routed to them.
    std::vector<uint64_t> survivor_values;
    for (int node : {0, 2}) {
      for (const Update& u : cluster->node_stream(node)) {
        survivor_values.push_back(u.value);
      }
    }
    const ExactOracle oracle(survivor_values);
    for (double phi : TestPhis()) {
      const ClusterAnswer answer = cluster->Query(phi, QueryScope::kLiveOnly);
      EXPECT_TRUE(answer.partial);
      EXPECT_EQ(answer.nodes_merged, 2);
      EXPECT_GE(answer.nodes_suspect, 1);
      EXPECT_EQ(answer.reported_count, survivor_values.size());
      EXPECT_LE(oracle.QuantileError(answer.value, phi), kSlack) << phi;
    }
    // The dead node's staleness is reported, not hidden: its last accepted
    // state is intact and aging.
    const ClusterNodeStatus status =
        cluster->coordinator().Status(1, cluster->now());
    EXPECT_TRUE(status.reported);
    EXPECT_TRUE(status.suspect);
    EXPECT_EQ(status.count, dead_known);
    EXPECT_GT(status.staleness_ticks, uint64_t{256});  // past stale_after
    // kAll still merges the dead node's last accepted sketch (3 nodes, no
    // partial flag -- everyone has reported at least once).
    const ClusterAnswer all = cluster->Query(0.5, QueryScope::kAll);
    EXPECT_EQ(all.nodes_merged, 3);
    EXPECT_FALSE(all.partial);
  }
}

TEST(ClusterTest, DeadNodeDrawsCappedBackoffProbes) {
  auto cluster = QuantileCluster::Create(BaseOptions(2, Algorithm::kRandom));
  ASSERT_NE(cluster, nullptr);
  const std::vector<uint64_t> data = TestData(1500, 55);
  for (size_t i = 0; i < 1000; ++i) cluster->Append(data[i]);
  ASSERT_TRUE(cluster->Quiesce());
  EXPECT_EQ(cluster->coordinator().stats().probes_sent, 0u);
  cluster->KillNode(1);
  for (size_t i = 1000; i < data.size(); ++i) cluster->Append(data[i]);
  cluster->Quiesce(2000);
  const size_t probes = cluster->coordinator().stats().probes_sent;
  EXPECT_GT(probes, 0u);
  // Capped backoff, not probe-per-tick: far fewer probes than ticks.
  EXPECT_LT(probes, 200u);
  EXPECT_TRUE(cluster->coordinator().Suspect(1, cluster->now()));
  // A live node that answers probes is not left suspect.
  EXPECT_FALSE(cluster->coordinator().Suspect(0, cluster->now()));
}

TEST(ClusterTest, MetricsExposePerNodeState) {
  auto cluster = QuantileCluster::Create(BaseOptions(2, Algorithm::kRandom));
  ASSERT_NE(cluster, nullptr);
  for (uint64_t v : TestData(800, 66)) cluster->Append(v);
  ASSERT_TRUE(cluster->Quiesce());
  cluster->KillNode(1);
  obs::MetricsRegistry registry;
  cluster->PublishMetrics(registry, "cluster");
  EXPECT_EQ(registry.GetGauge("cluster.node0.alive").value(), 1);
  EXPECT_EQ(registry.GetGauge("cluster.node1.alive").value(), 0);
  EXPECT_GT(registry.GetGauge("cluster.node0.known_count").value(), 0);
  EXPECT_GT(registry.GetGauge("cluster.reported_count").value(), 0);
  EXPECT_GT(registry.GetCounter("cluster.coordinator.accepted").value(), 0u);
}

ClusterOptions DurableOptions(int nodes,
                              std::vector<durability::Storage*> storage) {
  ClusterOptions options = BaseOptions(nodes, Algorithm::kRandom);
  options.node_storage = std::move(storage);
  options.node_pipeline.durability.sync_interval = 128;
  options.node_pipeline.durability.checkpoint_interval = 512;
  options.node_pipeline.durability.segment_bytes = 2048;
  options.node_pipeline.durability.keep_checkpoints = 2;
  return options;
}

// Graceful restart: stop a durable node cleanly, bring it back, and the
// epoch fast-forward + recovery must converge the cluster to answers
// bit-identical to an uninterrupted run.
TEST(ClusterTest, DurableNodeRestartResyncsBitIdentically) {
  const std::vector<uint64_t> data = TestData(2500, 77);

  // Reference: uninterrupted run, same config.
  std::vector<uint64_t> reference;
  {
    durability::MemStorage disk0, disk1;
    auto cluster = QuantileCluster::Create(DurableOptions(2, {&disk0, &disk1}));
    ASSERT_NE(cluster, nullptr);
    for (uint64_t v : data) cluster->Append(v);
    ASSERT_TRUE(cluster->Quiesce());
    for (double phi : TestPhis()) reference.push_back(cluster->Query(phi).value);
  }

  durability::MemStorage disk0, disk1;
  auto cluster = QuantileCluster::Create(DurableOptions(2, {&disk0, &disk1}));
  ASSERT_NE(cluster, nullptr);
  for (size_t i = 0; i < 1500; ++i) cluster->Append(data[i]);
  ASSERT_TRUE(cluster->Quiesce());
  // Clean shutdown (destructor writes a final checkpoint), then restart
  // from the same disk and replay whatever the recovery contract asks for.
  cluster->KillNode(0);
  ASSERT_TRUE(cluster->RestartNode(0));
  ASSERT_NE(cluster->node(0), nullptr);
  EXPECT_TRUE(cluster->node(0)->recovery().recovered);
  // The restarted incarnation resumed its epoch horizon from NodeMeta.
  EXPECT_GT(cluster->node(0)->last_sent_epoch(), 0u);
  cluster->ReplayNode(0);
  for (size_t i = 1500; i < data.size(); ++i) cluster->Append(data[i]);
  ASSERT_TRUE(cluster->Quiesce());
  EXPECT_EQ(cluster->StalenessBound(), 0u);
  EXPECT_EQ(cluster->node(0)->DurableSeq(), cluster->node_stream(0).size());

  std::vector<uint64_t> answers;
  for (double phi : TestPhis()) answers.push_back(cluster->Query(phi).value);
  EXPECT_EQ(answers, reference);
}

// A corrupted NodeMeta record must degrade to the ack fast-forward path,
// never break convergence.
TEST(ClusterTest, CorruptNodeMetaDegradesToAckFastForward) {
  const std::vector<uint64_t> data = TestData(2000, 88);
  durability::MemStorage disk0, disk1;
  auto cluster = QuantileCluster::Create(DurableOptions(2, {&disk0, &disk1}));
  ASSERT_NE(cluster, nullptr);
  for (size_t i = 0; i < 1200; ++i) cluster->Append(data[i]);
  ASSERT_TRUE(cluster->Quiesce());
  const uint64_t epoch_before = cluster->coordinator().HighestEpoch(0);
  EXPECT_GT(epoch_before, 0u);

  cluster->KillNode(0);
  // Mangle the meta record on disk; recovery must ignore it.
  ASSERT_TRUE(disk0.WriteFile("cluster/node0/node-meta.sq", "garbage"));
  ASSERT_TRUE(cluster->RestartNode(0));
  // Horizon lost: the node starts below the coordinator's epoch...
  EXPECT_EQ(cluster->node(0)->last_sent_epoch(), 0u);
  cluster->ReplayNode(0);
  for (size_t i = 1200; i < data.size(); ++i) cluster->Append(data[i]);
  // ...and the coordinator's acks fast-forward it past the old horizon.
  ASSERT_TRUE(cluster->Quiesce());
  EXPECT_GT(cluster->node(0)->last_sent_epoch(), epoch_before);
  EXPECT_EQ(cluster->StalenessBound(), 0u);
  const ExactOracle oracle(data);
  for (double phi : TestPhis()) {
    EXPECT_LE(oracle.QuantileError(cluster->Query(phi).value, phi), kSlack);
  }
}

}  // namespace
}  // namespace streamq::cluster
