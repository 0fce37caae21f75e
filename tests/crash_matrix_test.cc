// Crash-matrix harness for durable ingest (the acceptance sweep of
// DESIGN.md section 11): kill the pipeline at storage-operation crash
// points covering every WAL append, fsync, checkpoint write, rename and
// segment truncation, recover from what survived on the (simulated) disk,
// re-push the stream from ResumeSeq(), and require
//
//   * zero acknowledged-update loss: recovery + deduped re-push converges
//     to exactly the uninterrupted stream, so the final quantile answers
//     are bit-identical to an uninterrupted reference run;
//   * the eps-n error bound holds on the recovered pipeline;
//   * the ack mark never overclaims (acked <= pushed, and after the
//     re-push completes the whole stream is acknowledged again).
//
// Crash points are armed two ways: by operation kind (the Nth append, the
// Nth fsync, ...) to pin the semantically interesting edges, and by
// global operation index spread across a fault-free run's whole op count
// to sweep everything in between. The fault injector fires each crash
// just BEFORE the armed operation, and arming at index k+1 reaches
// "just after operation k", so both sides of every operation are covered.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "durability/faulty_storage.h"
#include "durability/storage.h"
#include "exact/exact_oracle.h"
#include "ingest/ingest_pipeline.h"
#include "quantile/factory.h"
#include "stream/generators.h"
#include "stream/update.h"

namespace streamq::durability {
namespace {

constexpr double kEps = 0.05;
constexpr uint64_t kStreamLen = 3000;

ingest::IngestOptions MatrixOptions(Storage* storage) {
  ingest::IngestOptions options;
  options.sketch.algorithm = Algorithm::kRandom;  // serializes its RNG
                                                  // state: replay is
                                                  // bit-reproducible
  options.sketch.eps = kEps;
  options.sketch.log_universe = 20;
  options.sketch.seed = 11;
  options.shards = 2;
  options.ring_capacity = 256;
  options.batch_size = 64;
  options.publish_interval = 512;
  options.durability.enabled = true;
  options.durability.storage = storage;
  options.durability.dir = "dur";
  // Small intervals so a 3000-update stream crosses many sync, segment
  // roll, checkpoint and truncation boundaries.
  options.durability.sync_interval = 256;
  options.durability.checkpoint_interval = 1024;
  options.durability.segment_bytes = 4096;
  options.durability.keep_checkpoints = 2;
  return options;
}

std::vector<uint64_t> MatrixData() {
  DatasetSpec spec;
  spec.distribution = Distribution::kUniform;
  spec.n = kStreamLen;
  spec.log_universe = 20;
  spec.seed = 83;
  return GenerateDataset(spec);
}

const std::vector<double>& MatrixPhis() {
  static const std::vector<double> phis = {0.01, 0.1,  0.25, 0.5,
                                           0.75, 0.9,  0.99};
  return phis;
}

/// The uninterrupted reference: same options, fault-free storage.
std::vector<uint64_t> ReferenceAnswers() {
  MemStorage storage;
  auto pipeline = ingest::IngestPipeline::Create(MatrixOptions(&storage));
  EXPECT_NE(pipeline, nullptr);
  for (uint64_t v : MatrixData()) pipeline->Push(Update{v, +1});
  pipeline->Flush();
  pipeline->Stop();
  return pipeline->QueryMany(MatrixPhis());
}

struct TrialResult {
  bool armed_crash_fired = false;
  uint64_t acked_at_crash = 0;
  uint64_t resume_seq = 0;
  uint64_t replayed_updates = 0;
};

/// One kill-and-recover cycle. `arm` installs the crash point on the
/// faulty view before the run starts. Every assertion of the durability
/// contract lives here.
TrialResult RunCrashTrial(const std::string& label, uint64_t seed,
                          const std::function<void(FaultyStorage&)>& arm,
                          const std::vector<uint64_t>& reference) {
  TrialResult result;
  const std::vector<uint64_t> data = MatrixData();
  MemStorage disk;  // the state that survives "power loss"
  {
    FaultyStorage faulty(&disk, StorageFaultSpec::Perfect(), seed);
    arm(faulty);
    auto pipeline = ingest::IngestPipeline::Create(MatrixOptions(&faulty));
    if (pipeline != nullptr) {
      for (uint64_t v : data) pipeline->Push(Update{v, +1});
      pipeline->Flush();
      result.acked_at_crash = pipeline->DurableSeq();
      EXPECT_LE(result.acked_at_crash, data.size())
          << label << ": ack mark overclaims";
    }
    // else: the crash fired during durable setup itself -- nothing was
    // acknowledged, recovery below must still come up (possibly fresh).
    result.armed_crash_fired = faulty.crashed();
    // Power loss now (mangles every unsynced tail; synced bytes and
    // completed renames survive). If the armed crash already fired this
    // is a no-op second failure.
    faulty.CrashNow();
    // The destructor's Stop() path then runs against dead storage: its
    // final checkpoint must fail harmlessly without touching `disk`.
  }

  // Restart: recovery sees the raw disk, exactly like a new process.
  auto recovered = ingest::IngestPipeline::Create(MatrixOptions(&disk));
  EXPECT_NE(recovered, nullptr) << label << ": recovery failed";
  if (recovered == nullptr) return result;
  result.resume_seq = recovered->ResumeSeq();
  result.replayed_updates = recovered->recovery().replayed_updates;
  EXPECT_GE(result.resume_seq, 1u) << label;
  EXPECT_LE(result.resume_seq, data.size() + 1)
      << label << ": recovery claims updates that were never pushed";

  // Re-push the stream from the resume point (seq s <-> data[s-1]);
  // per-shard seq dedup absorbs whatever the recovered state already
  // holds beyond the minimum shard.
  for (uint64_t seq = result.resume_seq; seq <= data.size(); ++seq) {
    recovered->Push(Update{data[seq - 1], +1});
  }
  recovered->Flush();
  EXPECT_EQ(recovered->DurableSeq(), data.size())
      << label << ": the re-pushed stream must be fully re-acknowledged";
  recovered->Stop();

  // Zero acknowledged-update loss, and in fact zero loss of any kind:
  // recovery + deduped replay must reconstruct the exact uninterrupted
  // stream, giving bit-identical answers...
  const std::vector<uint64_t> answers = recovered->QueryMany(MatrixPhis());
  EXPECT_EQ(answers, reference) << label << " (acked=" << result.acked_at_crash
                                << " resume=" << result.resume_seq << ")";
  // ...and independently the eps-n rank bound against the exact oracle.
  const ExactOracle oracle(data);
  for (size_t i = 0; i < MatrixPhis().size(); ++i) {
    EXPECT_LE(oracle.QuantileError(answers[i], MatrixPhis()[i]), 3 * kEps)
        << label << " phi=" << MatrixPhis()[i];
  }
  return result;
}

/// Total storage ops of a fault-free run, for spreading index crash
/// points over the whole lifetime.
uint64_t FaultFreeOpCount() {
  MemStorage disk;
  FaultyStorage faulty(&disk, StorageFaultSpec::Perfect(), /*seed=*/1);
  auto pipeline = ingest::IngestPipeline::Create(MatrixOptions(&faulty));
  EXPECT_NE(pipeline, nullptr);
  for (uint64_t v : MatrixData()) pipeline->Push(Update{v, +1});
  pipeline->Flush();
  pipeline->Stop();
  return faulty.op_count();
}

TEST(CrashMatrixTest, KindTargetedCrashPointsLoseNothing) {
  const std::vector<uint64_t> reference = ReferenceAnswers();
  ASSERT_EQ(reference.size(), MatrixPhis().size());

  struct KindPoint {
    StorageOp kind;
    const char* name;
    uint64_t nth;
  };
  std::vector<KindPoint> points;
  // Segment/checkpoint-file creation, WAL appends, fsyncs, checkpoint
  // publication renames, and the segment deletions behind WAL truncation
  // and checkpoint pruning. (StorageOp::kTruncate never occurs in live
  // operation -- WAL "truncation" is whole-segment deletion -- and reads
  // only happen during recovery, which runs fault-free here.)
  for (const uint64_t nth : {1, 2, 3}) {
    points.push_back({StorageOp::kCreate, "create", nth});
  }
  for (const uint64_t nth : {1, 2, 3, 5, 8, 13, 21}) {
    points.push_back({StorageOp::kAppend, "append", nth});
  }
  for (const uint64_t nth : {1, 2, 3, 5, 8}) {
    points.push_back({StorageOp::kSync, "sync", nth});
  }
  for (const uint64_t nth : {1, 2}) {
    points.push_back({StorageOp::kRename, "rename", nth});
  }
  for (const uint64_t nth : {1, 2}) {
    points.push_back({StorageOp::kDelete, "delete", nth});
  }

  int fired = 0;
  uint64_t seed = 9000;
  for (const KindPoint& point : points) {
    const std::string label =
        std::string("crash@") + point.name + "#" + std::to_string(point.nth);
    const TrialResult result = RunCrashTrial(
        label, ++seed,
        [&point](FaultyStorage& faulty) {
          faulty.ArmCrashAtOp(point.kind, point.nth);
        },
        reference);
    if (result.armed_crash_fired) ++fired;
    if (HasFatalFailure()) return;
  }
  // Every kind except the rarest tail points must actually fire.
  EXPECT_GE(fired, static_cast<int>(points.size()) - 3)
      << "the workload no longer reaches the armed operations; retune the "
         "matrix intervals";
}

TEST(CrashMatrixTest, IndexSweepCoversThirtyPlusCrashPoints) {
  const std::vector<uint64_t> reference = ReferenceAnswers();
  const uint64_t total_ops = FaultFreeOpCount();
  ASSERT_GT(total_ops, 30u) << "workload too small for a meaningful sweep";

  // >= 31 points: both sides of the first op, then evenly spread over the
  // whole fault-free lifetime (worker timing may shift a run's op count a
  // little; mid-range indices always fire).
  constexpr uint64_t kPoints = 30;
  std::vector<uint64_t> indices = {1, 2};
  for (uint64_t i = 1; i < kPoints; ++i) {
    const uint64_t index = 2 + i * (total_ops - 2) / kPoints;
    if (index != indices.back()) indices.push_back(index);
  }
  int fired = 0;
  uint64_t seed = 17000;
  for (const uint64_t index : indices) {
    const TrialResult result = RunCrashTrial(
        "crash@op" + std::to_string(index), ++seed,
        [index](FaultyStorage& faulty) { faulty.ArmCrashAtOpIndex(index); },
        reference);
    if (result.armed_crash_fired) ++fired;
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(fired, static_cast<int>(indices.size()) * 3 / 4)
      << "op-index sweep mostly missed; the run shape drifted";
}

TEST(CrashMatrixTest, RepeatedCrashesAcrossGenerations) {
  // Crash, recover, crash again mid-re-push, recover again: generational
  // fallback and WAL dedup must compose across incarnations.
  const std::vector<uint64_t> reference = ReferenceAnswers();
  const std::vector<uint64_t> data = MatrixData();
  MemStorage disk;

  // Incarnation 1: crash partway through the stream.
  {
    FaultyStorage faulty(&disk, StorageFaultSpec::Perfect(), /*seed=*/31337);
    faulty.ArmCrashAtOp(StorageOp::kSync, 4);
    auto pipeline = ingest::IngestPipeline::Create(MatrixOptions(&faulty));
    ASSERT_NE(pipeline, nullptr);
    for (uint64_t v : data) pipeline->Push(Update{v, +1});
    pipeline->Flush();
    EXPECT_TRUE(faulty.crashed());
    faulty.CrashNow();
  }

  // Incarnation 2: recover, re-push, crash again before finishing.
  uint64_t second_resume = 0;
  {
    FaultyStorage faulty(&disk, StorageFaultSpec::Perfect(), /*seed=*/31338);
    faulty.ArmCrashAtOp(StorageOp::kAppend, 6);
    auto pipeline = ingest::IngestPipeline::Create(MatrixOptions(&faulty));
    if (pipeline != nullptr) {
      second_resume = pipeline->ResumeSeq();
      for (uint64_t seq = second_resume; seq <= data.size(); ++seq) {
        pipeline->Push(Update{data[seq - 1], +1});
      }
      pipeline->Flush();
    }
    faulty.CrashNow();
  }

  // Incarnation 3: fault-free recovery completes the stream.
  auto pipeline = ingest::IngestPipeline::Create(MatrixOptions(&disk));
  ASSERT_NE(pipeline, nullptr);
  for (uint64_t seq = pipeline->ResumeSeq(); seq <= data.size(); ++seq) {
    pipeline->Push(Update{data[seq - 1], +1});
  }
  pipeline->Flush();
  EXPECT_EQ(pipeline->DurableSeq(), data.size());
  pipeline->Stop();
  EXPECT_EQ(pipeline->QueryMany(MatrixPhis()), reference);
}

}  // namespace
}  // namespace streamq::durability
