// Tests for the parallel ingest subsystem (src/ingest/): the SPSC ring,
// the RCU query view, and the sharded pipeline end to end, including its
// producer contract (round-robin routing, accepted prefixes). The
// cross-thread tests double as the ThreadSanitizer workload for the
// -DSTREAMQ_SANITIZE=thread configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "durability/storage.h"
#include "exact/exact_oracle.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/query_view.h"
#include "ingest/spsc_ring.h"
#include "obs/metrics.h"
#include "quantile/factory.h"
#include "stream/generators.h"
#include "stream/update.h"

namespace streamq::ingest {
namespace {

// ---------- SPSC ring ----------

/// One-element push through the ring's producer API: false when full.
template <typename T>
bool PushOne(SpscRing<T>& ring, T value) {
  if (ring.FreeSlots(1) == 0) return false;
  ring.Push(1, [value](size_t) { return value; });
  return true;
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(1024).capacity(), 1024u);
}

TEST(SpscRingTest, FifoOrderSingleThread) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(PushOne(ring, i));
  EXPECT_FALSE(PushOne(ring, 99)) << "full ring must refuse";
  int out[16];
  EXPECT_EQ(ring.PopBatch(out, 3), 3u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[2], 2);
  // Space freed: pushes succeed again, order preserved across wraparound.
  // The first pop drains up to the consumer's cached tail (elements 3..7);
  // the next one re-reads the producer index and finds the late push.
  EXPECT_TRUE(PushOne(ring, 8));
  EXPECT_EQ(ring.PopBatch(out, 16), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], 3 + i);
  EXPECT_EQ(ring.PopBatch(out, 16), 1u);
  EXPECT_EQ(out[0], 8);
  EXPECT_EQ(ring.PopBatch(out, 16), 0u) << "empty ring pops nothing";
}

TEST(SpscRingTest, FreeSlotsReloadsOnlyWhenTheCachedHeadIsShort) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.FreeSlots(8), 8u);
  ring.Push(5, [](size_t i) { return static_cast<int>(10 * i); });
  EXPECT_EQ(ring.FreeSlots(1), 3u);
  int out[8];
  ASSERT_EQ(ring.PopBatch(out, 4), 4u);
  // The cached head still shows 3 free slots, enough for 3: no reload, so
  // the answer is a stale but safe lower bound.
  EXPECT_EQ(ring.FreeSlots(3), 3u);
  // Asking for more than the cached copy shows reloads the consumer index.
  EXPECT_EQ(ring.FreeSlots(4), 7u);
  // One multi-slot push fills them all, wrapping the array.
  ring.Push(7, [](size_t i) { return static_cast<int>(100 + i); });
  EXPECT_EQ(ring.FreeSlots(1), 0u);
  ASSERT_EQ(ring.PopBatch(out, 8), 1u);  // up to the consumer's cached tail
  EXPECT_EQ(out[0], 40);
  ASSERT_EQ(ring.PopBatch(out, 8), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(out[i], 100 + i);
  EXPECT_EQ(ring.FreeSlots(8), 8u);
}

TEST(SpscRingTest, SizeApproxTracksDepth) {
  SpscRing<int> ring(16);
  EXPECT_EQ(ring.SizeApprox(), 0u);
  ASSERT_EQ(ring.FreeSlots(5), 16u);
  ring.Push(5, [](size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(ring.SizeApprox(), 5u);
  int out[4];
  ASSERT_EQ(ring.PopBatch(out, 4), 4u);
  EXPECT_EQ(ring.SizeApprox(), 1u);
}

TEST(SpscRingTest, CrossThreadTransferPreservesEveryElement) {
  // One producer, one consumer, a ring small enough to wrap thousands of
  // times: order and completeness must survive, and TSan must see no race.
  // The producer pushes runs of 1..7 elements, each sized from FreeSlots.
  constexpr uint64_t kCount = 200'000;
  SpscRing<uint64_t> ring(64);
  std::thread consumer([&ring] {
    uint64_t expected = 0;
    uint64_t out[32];
    while (expected < kCount) {
      const size_t n = ring.PopBatch(out, 32);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], expected) << "out of order";
        ++expected;
      }
      if (n == 0) std::this_thread::yield();
    }
  });
  uint64_t next = 0;
  while (next < kCount) {
    const size_t want = std::min<size_t>(1 + next % 7, kCount - next);
    const size_t n = std::min(want, ring.FreeSlots(want));
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    ring.Push(n, [next](size_t i) { return next + i; });
    next += n;
  }
  consumer.join();
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

// ---------- query view ----------

TEST(QueryViewTest, EmptyViewThenPublishes) {
  QueryView view;
  EXPECT_EQ(view.Load().sketch, nullptr);
  EXPECT_EQ(view.Epoch(), 0u);

  SketchConfig config;
  config.algorithm = Algorithm::kRandom;
  config.eps = 0.05;
  auto sketch = MakeSketch(config);
  for (uint64_t v = 0; v < 100; ++v) ASSERT_EQ(sketch->Insert(v), StreamqStatus::kOk);
  view.Publish(std::move(sketch), 100);
  QueryView::Snapshot snap = view.Load();
  ASSERT_NE(snap.sketch, nullptr);
  EXPECT_EQ(snap.epoch, 100u);
  EXPECT_EQ(snap.sketch->Count(), 100u);

  // Second publish flips to the other buffer; a snapshot taken before the
  // flip stays valid and unchanged.
  auto sketch2 = MakeSketch(config);
  view.Publish(std::move(sketch2), 150);
  EXPECT_EQ(view.Epoch(), 150u);
  EXPECT_EQ(snap.sketch->Count(), 100u) << "old snapshot must stay alive";
}

// ---------- pipeline ----------

SketchConfig PipelineConfig(Algorithm algorithm, double eps = 0.02) {
  SketchConfig config;
  config.algorithm = algorithm;
  config.eps = eps;
  config.log_universe = 20;
  config.seed = 11;
  return config;
}

std::vector<uint64_t> PipelineData(uint64_t n, uint64_t seed = 31) {
  DatasetSpec spec;
  spec.distribution = Distribution::kUniform;
  spec.n = n;
  spec.log_universe = 20;
  spec.seed = seed;
  return GenerateDataset(spec);
}

TEST(IngestPipelineTest, CreateRefusesUnsupportedConfigs) {
  IngestOptions options;
  options.sketch = PipelineConfig(Algorithm::kGkArray);
  EXPECT_EQ(IngestPipeline::Create(options), nullptr) << "GK is not mergeable";
  options.sketch = PipelineConfig(Algorithm::kRss);
  EXPECT_EQ(IngestPipeline::Create(options), nullptr) << "RSS has no clone";
  options.sketch = PipelineConfig(Algorithm::kRandom);
  options.shards = 0;
  EXPECT_EQ(IngestPipeline::Create(options), nullptr);
}

class IngestPipelineAccuracyTest : public ::testing::TestWithParam<Algorithm> {
};

TEST_P(IngestPipelineAccuracyTest, ShardedIngestMeetsMergedErrorBound) {
  const double eps = 0.02;
  IngestOptions options;
  options.sketch = PipelineConfig(GetParam(), eps);
  options.shards = 3;
  options.ring_capacity = 1 << 10;
  options.publish_interval = 8192;
  auto pipeline = IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);

  const std::vector<uint64_t> data = PipelineData(50'000);
  for (uint64_t v : data) pipeline->Push(Update{v, +1});
  pipeline->Flush();

  EXPECT_EQ(pipeline->PushedCount(), data.size());
  EXPECT_EQ(pipeline->ProcessedCount(), data.size());
  EXPECT_EQ(pipeline->ViewEpoch(), data.size());

  const ExactOracle oracle(data);
  const double slack =
      GetParam() == Algorithm::kFastQDigest ? 1.0 : 3.0;
  double max_error = 0.0;
  for (double phi = eps; phi < 1.0; phi += 5 * eps) {
    const uint64_t q = pipeline->Query(phi);
    max_error = std::max(max_error, oracle.QuantileError(q, phi));
  }
  EXPECT_LE(max_error, slack * eps) << AlgorithmName(GetParam());

  pipeline->Stop();
  // Post-Stop queries keep answering from the final view.
  EXPECT_EQ(pipeline->ViewEpoch(), data.size());
  EXPECT_LE(oracle.QuantileError(pipeline->Query(0.5), 0.5), slack * eps);
}

INSTANTIATE_TEST_SUITE_P(
    Mergeable, IngestPipelineAccuracyTest,
    ::testing::Values(Algorithm::kRandom, Algorithm::kMrl99,
                      Algorithm::kFastQDigest, Algorithm::kDcs),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return AlgorithmName(info.param);
    });

TEST(IngestPipelineTest, TurnstileWorkloadWithRoundRobinSharding) {
  // Deletions may land on a different shard than their insert under
  // round-robin routing; the linear dyadic summaries must still converge
  // to the surviving multiset once everything is merged.
  const double eps = 0.05;
  IngestOptions options;
  options.sketch = PipelineConfig(Algorithm::kDcs, eps);
  options.shards = 2;
  auto pipeline = IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);

  const std::vector<uint64_t> data = PipelineData(20'000, 77);
  const std::vector<Update> workload =
      MakeTurnstileWorkload(data, 0.25, uint64_t{1} << 20, 5);
  for (const Update& u : workload) pipeline->Push(u);
  pipeline->Flush();

  const ExactOracle oracle(data);
  double max_error = 0.0;
  for (double phi = eps; phi < 1.0; phi += 5 * eps) {
    max_error =
        std::max(max_error, oracle.QuantileError(pipeline->Query(phi), phi));
  }
  EXPECT_LE(max_error, 3.0 * eps);
}

TEST(IngestPipelineTest, RoundRobinRoutesSeqModShards) {
  // Every entry point routes the update with seq s to shard s mod N, so
  // the per-shard producer counts depend only on how many updates were
  // pushed, not on how the stream was split into calls.
  IngestOptions options;
  options.sketch = PipelineConfig(Algorithm::kRandom, 0.05);
  const std::vector<Update> five(5, Update{7, +1});

  options.shards = 2;
  auto two = IngestPipeline::Create(options);
  ASSERT_NE(two, nullptr);
  two->Push(Update{1, +1});  // seq 1 -> shard 1
  two->PushBatch(five);      // seqs 2..6 -> 0, 1, 0, 1, 0
  EXPECT_EQ(two->shard_stats(0).pushed.load(), 3u);
  EXPECT_EQ(two->shard_stats(1).pushed.load(), 3u);

  options.shards = 3;
  auto three = IngestPipeline::Create(options);
  ASSERT_NE(three, nullptr);
  EXPECT_TRUE(three->TryPush(Update{1, +1}));    // seq 1 -> shard 1
  EXPECT_EQ(three->TryPushBatch(five), 5u);       // seqs 2..6
  three->PushBatch(std::span(five).first(4));     // seqs 7..10
  EXPECT_EQ(three->shard_stats(0).pushed.load(), 3u);  // 3, 6, 9
  EXPECT_EQ(three->shard_stats(1).pushed.load(), 4u);  // 1, 4, 7, 10
  EXPECT_EQ(three->shard_stats(2).pushed.load(), 3u);  // 2, 5, 8
  EXPECT_EQ(three->LastPushedSeq(), 10u);
  three->Flush();
  EXPECT_EQ(three->ProcessedCount(), 10u);
}

TEST(IngestPipelineTest, TryPushBatchAcceptsPrefixesUntilEverythingIsIn) {
  // Rings far smaller than the offered spans: each call accepts a prefix,
  // the caller re-offers the rejected suffix, and the accepted seqs stay
  // contiguous (LastPushedSeq is the running total after every call).
  // The result must be the stream item-wise pushes build, fully durable.
  const std::vector<uint64_t> data = PipelineData(5000, 21);
  std::vector<Update> updates;
  for (uint64_t v : data) updates.push_back(Update{v, +1});

  durability::MemStorage storage;
  IngestOptions options;
  options.sketch = PipelineConfig(Algorithm::kRandom, 0.05);
  options.shards = 3;
  options.ring_capacity = 16;
  options.batch_size = 8;
  options.durability.enabled = true;
  options.durability.storage = &storage;
  options.durability.dir = "prefix";
  auto pipeline = IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);

  size_t accepted = 0;
  uint64_t refused_calls = 0;
  while (accepted < updates.size()) {
    const std::span<const Update> rest(updates.data() + accepted,
                                       updates.size() - accepted);
    const size_t taken = pipeline->TryPushBatch(rest);
    ASSERT_LE(taken, 3u * 16u) << "accepted more than the rings hold";
    accepted += taken;
    ASSERT_EQ(pipeline->LastPushedSeq(), accepted);
    if (taken < rest.size()) {
      ++refused_calls;
      std::this_thread::yield();
    }
  }
  EXPECT_GT(refused_calls, 0u) << "rings never filled; test is vacuous";
  uint64_t stalls = 0;
  for (int s = 0; s < pipeline->shard_count(); ++s) {
    stalls += pipeline->shard_stats(s).ring_full_stalls.load();
  }
  EXPECT_EQ(stalls, refused_calls) << "one stall tick per refused call";

  pipeline->Flush();
  EXPECT_EQ(pipeline->ProcessedCount(), updates.size());
  EXPECT_EQ(pipeline->DurableSeq(), updates.size());

  IngestOptions plain = options;
  plain.durability = {};
  auto reference = IngestPipeline::Create(plain);
  ASSERT_NE(reference, nullptr);
  for (const Update& u : updates) reference->Push(u);
  reference->Flush();
  const std::vector<double> phis = {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99};
  EXPECT_EQ(pipeline->QueryMany(phis), reference->QueryMany(phis));
}

TEST(IngestPipelineTest, QueriesNeverBlockIngestion) {
  // Queries run concurrently with pushes; every answer must come from a
  // published snapshot (values inside the data range), and ingestion must
  // complete. Primarily a TSan workload.
  IngestOptions options;
  options.sketch = PipelineConfig(Algorithm::kRandom, 0.05);
  options.shards = 2;
  options.publish_interval = 2048;
  auto pipeline = IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);

  const std::vector<uint64_t> data = PipelineData(60'000, 13);
  std::atomic<bool> done{false};
  std::atomic<bool> answered{false};
  std::thread querier([&] {
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t q = pipeline->Query(0.5);
      EXPECT_LT(q, uint64_t{1} << 20);
      std::vector<uint64_t> many = pipeline->QueryMany({0.25, 0.5, 0.75});
      EXPECT_EQ(many.size(), 3u);
      answered.store(true, std::memory_order_release);
      std::this_thread::yield();
    }
  });
  // Push only once the querier is running: otherwise a scheduler that
  // runs the whole stream first leaves nothing to overlap.
  while (!answered.load(std::memory_order_acquire)) std::this_thread::yield();
  for (uint64_t v : data) pipeline->Push(Update{v, +1});
  pipeline->Flush();
  done.store(true, std::memory_order_release);
  querier.join();
  EXPECT_EQ(pipeline->ProcessedCount(), data.size());
  EXPECT_GT(pipeline->stats().queries.load(), 0u);
}

TEST(IngestPipelineTest, StopIsIdempotentAndFinal) {
  // Stop must drain every pushed value, including ones pushed while a
  // worker that had found its ring empty was busy publishing. That window
  // is narrow, so one create/push/stop round rarely hits it; twenty do.
  IngestOptions options;
  options.sketch = PipelineConfig(Algorithm::kRandom, 0.05);
  options.shards = 2;
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE(round);
    auto pipeline = IngestPipeline::Create(options);
    ASSERT_NE(pipeline, nullptr);
    for (uint64_t v = 0; v < 5000; ++v) pipeline->Push(Update{v % 1024, +1});
    pipeline->Stop();
    pipeline->Stop();  // second stop is a no-op
    EXPECT_EQ(pipeline->ProcessedCount(), 5000u);
    EXPECT_EQ(pipeline->ViewEpoch(), 5000u);
  }
}

TEST(IngestPipelineTest, FlushWithNothingNewSkipsThePublish) {
  IngestOptions options;
  options.sketch = PipelineConfig(Algorithm::kRandom, 0.01);
  options.shards = 2;
  auto pipeline = IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);
  const std::vector<uint64_t> data = PipelineData(50'000, 5);
  for (uint64_t v : data) pipeline->Push(Update{v, +1});
  pipeline->Flush();
  const std::vector<double> phis = {0.0, 0.1, 0.5, 0.9, 1.0};
  const std::vector<uint64_t> answers = pipeline->QueryMany(phis);
  const int64_t rank = pipeline->Rank(data[7]);
  const uint64_t publishes = pipeline->stats().publishes.load();

  // The view already covers every shard's latest snapshot.
  pipeline->Flush();
  EXPECT_EQ(pipeline->stats().publishes.load(), publishes);
  EXPECT_EQ(pipeline->QueryMany(phis), answers);
  EXPECT_EQ(pipeline->Rank(data[7]), rank);
  EXPECT_EQ(pipeline->ViewEpoch(), data.size());
  EXPECT_EQ(pipeline->ViewCount(), data.size());

  pipeline->Push(Update{data[0], +1});
  pipeline->Flush();
  EXPECT_GT(pipeline->stats().publishes.load(), publishes);
  EXPECT_EQ(pipeline->ViewEpoch(), data.size() + 1);
  EXPECT_EQ(pipeline->ViewCount(), data.size() + 1);
  pipeline->Stop();
}

TEST(IngestPipelineTest, MemoryAccountingAndMetrics) {
  IngestOptions options;
  options.sketch = PipelineConfig(Algorithm::kFastQDigest, 0.02);
  options.shards = 3;
  options.publish_interval = 4096;
  auto pipeline = IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);

  const std::vector<uint64_t> data = PipelineData(30'000, 3);
  for (uint64_t v : data) pipeline->Push(Update{v, +1});
  pipeline->Flush();
  pipeline->Stop();

  // Peak = sum of shard peaks + peak view-buffer residency; both parts are
  // nonzero after a flush-published stream.
  uint64_t shard_peaks = 0;
  for (int s = 0; s < pipeline->shard_count(); ++s) {
    const uint64_t peak = pipeline->shard_stats(s).peak_memory_bytes.load();
    EXPECT_GT(peak, 0u) << "shard " << s;
    shard_peaks += peak;
  }
  EXPECT_GT(pipeline->stats().peak_view_bytes.load(), 0u);
  EXPECT_EQ(pipeline->PeakMemoryBytes(),
            shard_peaks + pipeline->stats().peak_view_bytes.load());
  EXPECT_GT(pipeline->RingBytes(), 0u);

  obs::MetricsRegistry registry;
  pipeline->PublishMetrics(registry, "ingest");
  const obs::Counter* pushed = registry.FindCounter("ingest.pushed");
  ASSERT_NE(pushed, nullptr);
  EXPECT_EQ(pushed->value(), data.size());
  uint64_t processed_sum = 0;
  for (int s = 0; s < pipeline->shard_count(); ++s) {
    const std::string p = "ingest.shard" + std::to_string(s);
    ASSERT_NE(registry.FindGauge(p + ".queue_depth"), nullptr);
    const obs::Counter* proc = registry.FindCounter(p + ".processed");
    ASSERT_NE(proc, nullptr);
    processed_sum += proc->value();
  }
  EXPECT_EQ(processed_sum, data.size());
  const obs::Histogram* merge_ticks =
      registry.FindHistogram("ingest.merge_ticks");
  ASSERT_NE(merge_ticks, nullptr);
  EXPECT_GT(merge_ticks->count(), 0u);
  ASSERT_NE(registry.FindCounter("ingest.stale_queries"), nullptr);
  const obs::Gauge* view_epoch = registry.FindGauge("ingest.view_epoch");
  ASSERT_NE(view_epoch, nullptr);
  EXPECT_EQ(view_epoch->value(), static_cast<int64_t>(data.size()));
}

TEST(IngestPipelineTest, StopDrainsEveryAcceptedTryPush) {
  // Bounded-drain guarantee: every update TryPush accepted before Stop()
  // is reflected in the final published view -- no tail loss on shutdown.
  // Tiny rings force refusals, so acceptance really is the boundary.
  IngestOptions options;
  options.sketch = PipelineConfig(Algorithm::kRandom, 0.05);
  options.shards = 2;
  options.ring_capacity = 64;
  options.publish_interval = 100'000;  // beyond the stream: only the
                                       // Stop-path publish can cover it
  auto pipeline = IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);

  const std::vector<uint64_t> data = PipelineData(30'000, 59);
  uint64_t accepted = 0;
  for (uint64_t v : data) {
    if (pipeline->TryPush(Update{v, +1})) ++accepted;
  }
  EXPECT_LT(accepted, data.size()) << "rings never filled; test is vacuous";
  pipeline->Stop();

  EXPECT_EQ(pipeline->PushedCount(), accepted);
  EXPECT_EQ(pipeline->ProcessedCount(), accepted);
  EXPECT_EQ(pipeline->ViewEpoch(), accepted) << "final view misses updates";
  uint64_t stalls = 0;
  for (int s = 0; s < pipeline->shard_count(); ++s) {
    stalls += pipeline->shard_stats(s).ring_full_stalls.load();
  }
  EXPECT_EQ(stalls, data.size() - accepted);
}

TEST(IngestPipelineTest, PushBackoffRecordsStallsAndLosesNothing) {
  // Force ring-full episodes on the blocking path: a 2-slot ring and a
  // stream long enough that the producer repeatedly outruns the worker.
  // Every episode must resolve (no deadlock), count one stall, and land a
  // sample in the ring_full_stall_ns histogram.
  IngestOptions options;
  options.sketch = PipelineConfig(Algorithm::kRandom, 0.05);
  options.shards = 1;
  options.ring_capacity = 2;
  auto pipeline = IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);

  constexpr uint64_t kCount = 20'000;
  for (uint64_t v = 0; v < kCount; ++v) {
    pipeline->Push(Update{v % 1024, +1});
  }
  pipeline->Flush();
  EXPECT_EQ(pipeline->ProcessedCount(), kCount);
  EXPECT_GT(pipeline->shard_stats(0).ring_full_stalls.load(), 0u);

  obs::MetricsRegistry registry;
  pipeline->PublishMetrics(registry, "ingest");
  const obs::Histogram* stall_ns =
      registry.FindHistogram("ingest.ring_full_stall_ns");
  ASSERT_NE(stall_ns, nullptr);
  EXPECT_EQ(stall_ns->count(),
            pipeline->shard_stats(0).ring_full_stalls.load());
  ASSERT_NE(registry.FindCounter("ingest.shard0.stall_watchdog_trips"),
            nullptr);
}

TEST(IngestPipelineTest, RejectedUpdatesAreCounted) {
  IngestOptions options;
  options.sketch = PipelineConfig(Algorithm::kDcs, 0.05);  // universe 2^20
  options.shards = 2;
  auto pipeline = IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);
  for (uint64_t v = 0; v < 1000; ++v) pipeline->Push(Update{v, +1});
  // Out-of-universe values are refused by the shard sketch, not applied.
  for (int i = 0; i < 100; ++i) {
    pipeline->Push(Update{uint64_t{1} << 40, +1});
  }
  pipeline->Flush();
  uint64_t rejected = 0;
  for (int s = 0; s < pipeline->shard_count(); ++s) {
    rejected += pipeline->shard_stats(s).rejected.load();
  }
  EXPECT_EQ(rejected, 100u);
  EXPECT_EQ(pipeline->ProcessedCount(), 1100u);  // processed includes refused
}

}  // namespace
}  // namespace streamq::ingest
