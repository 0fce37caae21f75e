// End-to-end cluster fault matrix (the acceptance sweep of DESIGN.md
// section 13): armed storage crash points on one node's disk composed
// with the full channel fault mix (drop/duplicate/reorder/delay/corrupt
// on both the data and ack directions), across k in {2, 4} nodes.
//
// Every cell must show zero acked-update loss and full convergence: the
// killed node restarts from whatever its raw disk holds (checkpoint +
// WAL tail), the producer replays its recorded sub-stream from
// ResumeSeq(), the epoch protocol resynchronises it with the
// coordinator, and the post-recovery global quantile answers are
// bit-identical to an uninterrupted run of the same cluster -- plus,
// independently, within the merged eps * n oracle bound.
//
// The bit-identical comparison against a perfect-channel reference is
// legitimate because every link in the chain is deterministic: routing
// is a pure function of (seq, value) and Append always consumes the seq;
// the recovered pipeline + deduped replay reconstructs the exact node
// stream (the single-node crash matrix proves this); the coordinator's
// final accepted shipment is the post-Flush complete clone; and queries
// merge in node-id order into a fresh scratch. Channel faults and crash
// history can delay convergence, never change the converged answer.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "durability/faulty_storage.h"
#include "durability/storage.h"
#include "exact/exact_oracle.h"
#include "quantile/factory.h"
#include "stream/generators.h"

namespace streamq::cluster {
namespace {

using durability::FaultyStorage;
using durability::MemStorage;
using durability::Storage;
using durability::StorageFaultSpec;
using durability::StorageOp;

constexpr double kEps = 0.05;
constexpr uint64_t kStreamLen = 2400;
// Crash after ~60% of the stream has been appended cluster-wide.
constexpr uint64_t kCrashAfter = (kStreamLen * 3) / 5;

const std::vector<double>& MatrixPhis() {
  static const std::vector<double> phis = {0.01, 0.1, 0.25, 0.5,
                                           0.75, 0.9, 0.99};
  return phis;
}

std::vector<uint64_t> MatrixData() {
  DatasetSpec spec;
  spec.distribution = Distribution::kUniform;
  spec.n = kStreamLen;
  spec.log_universe = 20;
  spec.seed = 83;
  return GenerateDataset(spec);
}

FaultSpec LossyMix() {
  FaultSpec spec;
  spec.drop = 0.05;
  spec.duplicate = 0.05;
  spec.reorder = 0.05;
  spec.corrupt = 0.05;
  spec.min_delay = 0;
  spec.max_delay = 8;
  return spec;
}

ClusterOptions MatrixOptions(int nodes, std::vector<Storage*> storage,
                             bool lossy) {
  ClusterOptions options;
  options.nodes = nodes;
  options.node_pipeline.sketch.algorithm = Algorithm::kRandom;
  // Random serializes its RNG state, so recovery + replay is
  // bit-reproducible (same reason the single-node crash matrix uses it).
  options.node_pipeline.sketch.eps = kEps;
  options.node_pipeline.sketch.log_universe = 20;
  options.node_pipeline.sketch.seed = 11;
  options.node_pipeline.shards = 2;
  options.node_pipeline.ring_capacity = 256;
  options.node_pipeline.batch_size = 64;
  options.node_pipeline.publish_interval = 512;
  // Small durability intervals so each node's sub-stream still crosses
  // many sync / segment-roll / checkpoint / pruning boundaries.
  options.node_pipeline.durability.sync_interval = 128;
  options.node_pipeline.durability.checkpoint_interval = 512;
  options.node_pipeline.durability.segment_bytes = 2048;
  options.node_pipeline.durability.keep_checkpoints = 2;
  options.theta = 0.05;
  options.retry = RetryPolicy{8, 256};
  options.stale_after = 1024;
  options.probe = RetryPolicy{16, 256};
  options.seed = 5;
  options.node_storage = std::move(storage);
  if (lossy) {
    options.data_faults = LossyMix();
    options.ack_faults = LossyMix();
  }
  return options;
}

/// The uninterrupted reference for k nodes: same durable config, perfect
/// channels, no crash. One cached run per k.
const std::vector<uint64_t>& ReferenceAnswers(int nodes) {
  static std::vector<std::vector<uint64_t>> cache(8);
  std::vector<uint64_t>& answers = cache[static_cast<size_t>(nodes)];
  if (!answers.empty()) return answers;
  std::vector<std::unique_ptr<MemStorage>> disks;
  std::vector<Storage*> storage;
  for (int i = 0; i < nodes; ++i) {
    disks.push_back(std::make_unique<MemStorage>());
    storage.push_back(disks.back().get());
  }
  auto cluster =
      QuantileCluster::Create(MatrixOptions(nodes, storage, /*lossy=*/false));
  EXPECT_NE(cluster, nullptr);
  for (uint64_t v : MatrixData()) cluster->Append(v);
  EXPECT_TRUE(cluster->Quiesce());
  for (double phi : MatrixPhis()) answers.push_back(cluster->Query(phi).value);
  return answers;
}

/// One cell of the matrix: run the cluster with `arm` installed on
/// crash_node's storage, power-lose that node mid-stream, restart it from
/// its raw disk, replay, finish the stream, and check the full contract.
/// Returns whether the armed crash actually fired.
bool RunClusterTrial(const std::string& label, int nodes, int crash_node,
                     bool lossy, uint64_t seed,
                     const std::function<void(FaultyStorage&)>& arm) {
  const std::vector<uint64_t> data = MatrixData();
  const std::vector<uint64_t>& reference = ReferenceAnswers(nodes);
  EXPECT_EQ(reference.size(), MatrixPhis().size());

  std::vector<std::unique_ptr<MemStorage>> disks;  // survive "power loss"
  for (int i = 0; i < nodes; ++i) disks.push_back(std::make_unique<MemStorage>());
  FaultyStorage faulty(disks[static_cast<size_t>(crash_node)].get(),
                       StorageFaultSpec::Perfect(), seed);
  arm(faulty);

  std::vector<Storage*> storage;
  for (int i = 0; i < nodes; ++i) {
    storage.push_back(i == crash_node
                          ? static_cast<Storage*>(&faulty)
                          : static_cast<Storage*>(disks[size_t(i)].get()));
  }
  auto cluster =
      QuantileCluster::Create(MatrixOptions(nodes, storage, lossy));

  bool fired = false;
  if (cluster == nullptr) {
    // The armed crash fired during the crash node's durable setup itself:
    // nothing was acknowledged anywhere, so recovery from the raw disks
    // must come up (possibly fresh) and the full stream runs from the top.
    EXPECT_TRUE(faulty.crashed()) << label << ": Create refused without crash";
    fired = faulty.crashed();
    faulty.CrashNow();
    std::vector<Storage*> raw;
    for (int i = 0; i < nodes; ++i) raw.push_back(disks[size_t(i)].get());
    cluster = QuantileCluster::Create(MatrixOptions(nodes, raw, lossy));
    EXPECT_NE(cluster, nullptr) << label << ": recovery after setup crash";
    if (cluster == nullptr) return fired;
    for (uint64_t v : data) cluster->Append(v);
  } else {
    for (uint64_t i = 0; i < kCrashAfter; ++i) cluster->Append(data[i]);
    fired = faulty.crashed();
    // Power loss on the crash node (a no-op second failure if the armed
    // crash already fired), then the kill: the node destructor's final
    // flush/checkpoint fails against dead storage, like the real thing.
    faulty.CrashNow();
    cluster->KillNode(crash_node);
    // Restart from the RAW disk -- exactly what a new process sees.
    const bool restarted = cluster->RestartNode(
        crash_node, disks[static_cast<size_t>(crash_node)].get());
    EXPECT_TRUE(restarted) << label << ": recovery failed";
    if (!restarted) return fired;
    cluster->ReplayNode(crash_node);
    for (uint64_t i = kCrashAfter; i < data.size(); ++i) {
      cluster->Append(data[i]);
    }
  }

  // Convergence: the epoch protocol must resynchronise the restarted node
  // despite the channel fault mix.
  EXPECT_TRUE(cluster->Quiesce()) << label << ": cluster failed to quiesce";
  EXPECT_EQ(cluster->dropped_appends(), 0u) << label;
  EXPECT_EQ(cluster->StalenessBound(), 0u) << label;

  // Zero acked-update loss, per node: every appended update is durable
  // and acknowledged again after the replay.
  for (int i = 0; i < nodes; ++i) {
    EXPECT_NE(cluster->node(i), nullptr) << label;
    if (cluster->node(i) == nullptr) return fired;
    EXPECT_EQ(cluster->node(i)->DurableSeq(), cluster->node_stream(i).size())
        << label << ": node " << i << " lost acknowledged updates";
  }

  // Bit-identical global answers vs the uninterrupted run...
  std::vector<uint64_t> answers;
  for (double phi : MatrixPhis()) {
    const ClusterAnswer answer = cluster->Query(phi);
    EXPECT_EQ(answer.nodes_merged, nodes) << label;
    EXPECT_FALSE(answer.partial) << label;
    answers.push_back(answer.value);
  }
  EXPECT_EQ(answers, reference) << label;

  // ...and independently the merged eps-n bound against the exact oracle
  // over the full logical stream.
  const ExactOracle oracle(data);
  for (size_t i = 0; i < MatrixPhis().size(); ++i) {
    EXPECT_LE(oracle.QuantileError(answers[i], MatrixPhis()[i]), 3 * kEps)
        << label << " phi=" << MatrixPhis()[i];
  }
  return fired;
}

struct KindPoint {
  StorageOp kind;
  const char* name;
  uint64_t nth;
};

/// The semantically interesting storage edges on the crash node's disk:
/// WAL segment/checkpoint creation, WAL appends, fsyncs, checkpoint
/// publication renames, and the deletions behind segment truncation and
/// checkpoint pruning. (NodeMeta goes through create+append+sync+rename
/// too, so its atomic-write protocol sits under the same points.)
const std::vector<KindPoint>& MatrixPoints() {
  static const std::vector<KindPoint> points = {
      {StorageOp::kCreate, "create", 2},  {StorageOp::kAppend, "append", 3},
      {StorageOp::kAppend, "append", 13}, {StorageOp::kSync, "sync", 2},
      {StorageOp::kSync, "sync", 5},      {StorageOp::kRename, "rename", 1},
      {StorageOp::kDelete, "delete", 1},
  };
  return points;
}

void RunMatrixForClusterSize(int nodes, bool lossy, uint64_t seed_base) {
  int fired = 0;
  uint64_t seed = seed_base;
  for (const KindPoint& point : MatrixPoints()) {
    // Crash the last node: with round-robin routing every node sees the
    // same op shape, and the highest id exercises the "merge order is node
    // id, not arrival" property hardest.
    const int crash_node = nodes - 1;
    const std::string label = std::string(lossy ? "lossy" : "perfect") + "/k" +
                              std::to_string(nodes) + "/crash@" + point.name +
                              "#" + std::to_string(point.nth);
    if (RunClusterTrial(label, nodes, crash_node, lossy, ++seed,
                        [&point](FaultyStorage& faulty) {
                          faulty.ArmCrashAtOp(point.kind, point.nth);
                        })) {
      ++fired;
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  // The workload must actually reach nearly all the armed operations.
  EXPECT_GE(fired, static_cast<int>(MatrixPoints().size()) - 1)
      << "the cluster workload no longer reaches the armed operations; "
         "retune the matrix intervals";
}

TEST(ClusterFaultMatrixTest, TwoNodesLossyChannels) {
  RunMatrixForClusterSize(/*nodes=*/2, /*lossy=*/true, /*seed_base=*/9000);
}

TEST(ClusterFaultMatrixTest, FourNodesLossyChannels) {
  RunMatrixForClusterSize(/*nodes=*/4, /*lossy=*/true, /*seed_base=*/17000);
}

TEST(ClusterFaultMatrixTest, PerfectChannelsSanity) {
  // Two cells with no channel faults at all: isolates the storage-crash
  // half of the matrix, so a regression here pins the blame on recovery
  // rather than on the retry protocol.
  EXPECT_TRUE(RunClusterTrial("perfect/k2/crash@sync#3", /*nodes=*/2,
                              /*crash_node=*/1, /*lossy=*/false,
                              /*seed=*/31337, [](FaultyStorage& faulty) {
                                faulty.ArmCrashAtOp(StorageOp::kSync, 3);
                              }));
  RunClusterTrial("perfect/k2/crash@append#8", /*nodes=*/2, /*crash_node=*/0,
                  /*lossy=*/false, /*seed=*/31338,
                  [](FaultyStorage& faulty) {
                    faulty.ArmCrashAtOp(StorageOp::kAppend, 8);
                  });
}

}  // namespace
}  // namespace streamq::cluster
