// Tests for the flight-recorder tracing layer (src/obs/trace.h,
// src/obs/trace_export.h) and its satellites: TickClock calibration,
// Histogram::ValueAtQuantile, ring record/snapshot/wrap semantics, the
// Chrome-trace and Prometheus exporters (including wrap-orphaned spans),
// crash-dump triggers, and the end-to-end armed-crash dump the acceptance
// criteria require.
//
// The concurrency tests double as the TSan proof that concurrent record +
// snapshot is race-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "durability/faulty_storage.h"
#include "durability/storage.h"
#include "ingest/ingest_pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "quantile/factory.h"
#include "stream/update.h"

namespace streamq {
namespace {

using obs::ChromeTraceOptions;
using obs::ExportChromeTrace;
using obs::ExportPrometheusText;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::TickClock;
using obs::TracePhase;
using obs::TracePoint;
using obs::Tracer;
using obs::TraceRing;

// Restores the global tracer to its default state (disabled, cleared,
// disarmed) however a test exits.
struct GlobalTraceGuard {
  GlobalTraceGuard() {
    Tracer::Global().SetEnabled(true);
    Tracer::Global().Clear();
  }
  ~GlobalTraceGuard() {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().SetCrashDumpPath("");
    Tracer::Global().Clear();
  }
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Minimal structural JSON sanity: balanced braces/brackets outside string
// literals and no trailing commas. The authoritative json.loads validation
// runs in scripts/check_trace_json.py; this keeps C++-side coverage for
// builds where the script tests are not registered.
void ExpectStructurallyValidJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  char prev_significant = '\0';
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
      EXPECT_NE(prev_significant, ',') << "trailing comma";
    }
    if (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
      prev_significant = c;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

// --- TickClock calibration ------------------------------------------------

TEST(TickClockTest, CalibrationIsSelfConsistent) {
  if (TickClock::UsingTsc()) {
    // A plausible TSC frequency: 100 MHz .. 10 GHz.
    EXPECT_GT(TickClock::NanosPerTick(), 0.1);
    EXPECT_LT(TickClock::NanosPerTick(), 10.0);
  } else {
    EXPECT_EQ(TickClock::NanosPerTick(), 1.0);
    EXPECT_EQ(TickClock::ToNanos(12345), 12345u);
  }
  EXPECT_EQ(TickClock::ToNanos(0), 0u);
}

TEST(TickClockTest, NanosTrackRealTime) {
  // A 20 ms sleep must measure as tens of milliseconds in calibrated
  // nanoseconds — this is what makes exported trace timestamps real time
  // rather than raw cycle counts. Wide bounds absorb scheduler noise.
  const uint64_t t0 = TickClock::NowNanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t t1 = TickClock::NowNanos();
  EXPECT_GE(t1 - t0, 10'000'000u);
  EXPECT_LE(t1 - t0, 2'000'000'000u);
}

TEST(TickClockTest, MonotonicAcrossThreads) {
  // Sequenced handoff: ticks taken in joined threads never run backwards
  // from the perspective of the next thread (invariant TSC is synchronized
  // across cores; the steady_clock fallback is monotonic by contract).
  uint64_t previous = TickClock::Now();
  for (int i = 0; i < 8; ++i) {
    uint64_t sampled = 0;
    std::thread t([&sampled] { sampled = TickClock::Now(); });
    t.join();
    EXPECT_GE(sampled, previous);
    previous = sampled;
  }
}

// --- Histogram::ValueAtQuantile ------------------------------------------

TEST(ValueAtQuantileTest, EmptyAndInvalidInputs) {
  Histogram h;
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
  h.Record(7);
  EXPECT_EQ(h.ValueAtQuantile(-0.1), 0u);
  EXPECT_EQ(h.ValueAtQuantile(1.1), 0u);
  EXPECT_EQ(h.ValueAtQuantile(std::nan("")), 0u);
}

TEST(ValueAtQuantileTest, DegenerateDistributionIsExact) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(42);
  // All mass in one bucket, min == max == 42: clamping makes every
  // quantile exact.
  EXPECT_EQ(h.ValueAtQuantile(0.0), 42u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 42u);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 42u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 42u);
}

TEST(ValueAtQuantileTest, EndpointsAreMinAndMax) {
  Histogram h;
  h.Record(3);
  h.Record(1000);
  h.Record(17);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 3u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 1000u);
}

TEST(ValueAtQuantileTest, MatchesExactRankBucket) {
  // Uniform 1..N: for each phi, the estimate must land in the same pow2
  // bucket as the exact rank-ceil(phi*N) order statistic — the histogram's
  // resolution bound.
  constexpr uint64_t kN = 10000;
  Histogram h;
  std::vector<uint64_t> sorted;
  sorted.reserve(kN);
  for (uint64_t v = 1; v <= kN; ++v) {
    h.Record(v);
    sorted.push_back(v);
  }
  for (double phi : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const uint64_t rank = static_cast<uint64_t>(
        std::ceil(phi * static_cast<double>(kN)));
    const uint64_t exact = sorted[rank - 1];
    const uint64_t est = h.ValueAtQuantile(phi);
    EXPECT_EQ(Histogram::BucketIndex(est), Histogram::BucketIndex(exact))
        << "phi=" << phi << " exact=" << exact << " est=" << est;
    EXPECT_GE(est, h.min());
    EXPECT_LE(est, h.max());
  }
}

TEST(ValueAtQuantileTest, SkewedMassFindsTheHeavyBucket) {
  Histogram h;
  for (int i = 0; i < 990; ++i) h.Record(4);   // bucket of [4,8)
  for (int i = 0; i < 10; ++i) h.Record(1 << 20);
  EXPECT_EQ(Histogram::BucketIndex(h.ValueAtQuantile(0.5)),
            Histogram::BucketIndex(4));
  EXPECT_EQ(Histogram::BucketIndex(h.ValueAtQuantile(0.999)),
            Histogram::BucketIndex(1 << 20));
}

TEST(ValueAtQuantileTest, SaturatingBucketUsesRecordedMax) {
  Histogram h;
  const uint64_t huge = uint64_t{1} << 40;  // saturates into the last bucket
  h.Record(huge);
  h.Record(huge + 5);
  EXPECT_GE(h.ValueAtQuantile(0.9), huge);
  EXPECT_LE(h.ValueAtQuantile(0.9), huge + 5);
}

// --- TraceRing ------------------------------------------------------------

TEST(TraceRingTest, RoundTripInOrder) {
  TraceRing ring(64);
  ring.Record(TracePoint::kPush, TracePhase::kBegin, 11);
  ring.Record(TracePoint::kPush, TracePhase::kEnd, 0);
  ring.Record(TracePoint::kViewFlip, TracePhase::kInstant, 7);
  const TraceRing::SnapshotResult snap = ring.Snapshot();
  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_EQ(snap.recorded, 3u);
  EXPECT_EQ(snap.overwritten, 0u);
  EXPECT_EQ(snap.discarded, 0u);
  EXPECT_EQ(snap.events[0].point, TracePoint::kPush);
  EXPECT_EQ(snap.events[0].phase, TracePhase::kBegin);
  EXPECT_EQ(snap.events[0].arg, 11u);
  EXPECT_EQ(snap.events[2].point, TracePoint::kViewFlip);
  EXPECT_EQ(snap.events[2].arg, 7u);
  // Timestamps from one thread are non-decreasing.
  EXPECT_LE(snap.events[0].ticks, snap.events[1].ticks);
  EXPECT_LE(snap.events[1].ticks, snap.events[2].ticks);
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 8u);
  EXPECT_EQ(TraceRing(100).capacity(), 128u);
  EXPECT_EQ(TraceRing(256).capacity(), 256u);
}

TEST(TraceRingTest, WrapKeepsTheNewestEvents) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 100; ++i) {
    ring.Record(TracePoint::kPush, TracePhase::kInstant, i);
  }
  const TraceRing::SnapshotResult snap = ring.Snapshot();
  EXPECT_EQ(snap.recorded, 100u);
  EXPECT_EQ(snap.overwritten, 100u - ring.capacity());
  // The seqlock rule keeps index i only when i + capacity > head: the
  // oldest surviving slot is the one a writer mid-recording could be
  // rewriting, so even a quiescent wrapped ring yields capacity - 1
  // events with exactly one conservatively discarded.
  ASSERT_EQ(snap.events.size(), ring.capacity() - 1);
  EXPECT_EQ(snap.discarded, 1u);
  // The survivors are exactly the newest `capacity - 1` args, in order.
  for (size_t i = 0; i < snap.events.size(); ++i) {
    EXPECT_EQ(snap.events[i].arg, 100 - (ring.capacity() - 1) + i);
  }
}

TEST(TraceRingTest, ResetForgetsHistory) {
  TraceRing ring(16);
  ring.Record(TracePoint::kPush, TracePhase::kInstant, 1);
  ring.Reset();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.Snapshot().events.empty());
}

TEST(TraceRingTest, ConcurrentSnapshotsNeverTear) {
  // One writer hammering a tiny ring, one reader snapshotting: every kept
  // event must be internally consistent (arg == ticks payload contract
  // below) even while being overwritten. Runs under TSan in the verify
  // config, which also proves data-race freedom.
  TraceRing ring(16);
  std::atomic<bool> stop{false};
  std::thread writer([&ring, &stop] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // arg encodes the sequence; phase alternates to vary meta.
      ring.Record(TracePoint::kWalAppend,
                  (i & 1) != 0 ? TracePhase::kEnd : TracePhase::kBegin, i);
      ++i;
    }
  });
  for (int round = 0; round < 200; ++round) {
    const TraceRing::SnapshotResult snap = ring.Snapshot();
    // Kept events are in recording order: args strictly increase.
    for (size_t i = 1; i < snap.events.size(); ++i) {
      EXPECT_GT(snap.events[i].arg, snap.events[i - 1].arg);
      EXPECT_GE(snap.events[i].ticks, snap.events[i - 1].ticks);
    }
    EXPECT_LE(snap.events.size() + snap.discarded, ring.capacity());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// --- Tracer pool + macros -------------------------------------------------

TEST(TracerTest, RingsAreReusedAcrossThreads) {
  GlobalTraceGuard guard;
  auto record_once = [] {
    obs::TraceRecord(TracePoint::kPush, TracePhase::kInstant, 1);
  };
  std::thread(record_once).join();
  const size_t rings_after_first = Tracer::Global().RingCount();
  // A second short-lived thread reuses the released ring instead of
  // growing the pool.
  std::thread(record_once).join();
  EXPECT_EQ(Tracer::Global().RingCount(), rings_after_first);
}

TEST(TracerTest, SpanMacroRecordsBeginAndEnd) {
  GlobalTraceGuard guard;
  const uint64_t before = Tracer::Global().TotalRecorded();
  {
    STREAMQ_TRACE_SPAN(TracePoint::kQuery, 42);
  }
  EXPECT_EQ(Tracer::Global().TotalRecorded(), before + 2);
  STREAMQ_TRACE_INSTANT(TracePoint::kViewFlip, 9);
  EXPECT_EQ(Tracer::Global().TotalRecorded(), before + 3);
}

TEST(TracerTest, DisabledMacrosRecordNothing) {
  GlobalTraceGuard guard;
  Tracer::Global().SetEnabled(false);
  const uint64_t before = Tracer::Global().TotalRecorded();
  {
    STREAMQ_TRACE_SPAN(TracePoint::kQuery, 1);
    STREAMQ_TRACE_INSTANT(TracePoint::kViewFlip, 2);
  }
  EXPECT_EQ(Tracer::Global().TotalRecorded(), before);
}

TEST(TracerTest, SpanLatchesEnabledAtConstruction) {
  GlobalTraceGuard guard;
  const uint64_t before = Tracer::Global().TotalRecorded();
  {
    STREAMQ_TRACE_SPAN(TracePoint::kQuery, 1);
    // Disabling mid-span must not orphan the begin: the span latched the
    // flag and still records its end.
    Tracer::Global().SetEnabled(false);
  }
  EXPECT_EQ(Tracer::Global().TotalRecorded(), before + 2);
}

// --- Chrome trace export --------------------------------------------------

TEST(ChromeExportTest, PairsSpansAndMarksOrphans) {
  Tracer tracer;
  TraceRing* ring = tracer.AcquireThreadRing();
  // An orphan end (its begin was "overwritten"), a matched span with a
  // nested instant, and an orphan begin (no end before the dump).
  ring->Record(TracePoint::kWalSync, TracePhase::kEnd, 0);
  ring->Record(TracePoint::kWorkerBatch, TracePhase::kBegin, 64);
  ring->Record(TracePoint::kViewFlip, TracePhase::kInstant, 3);
  ring->Record(TracePoint::kWorkerBatch, TracePhase::kEnd, 0);
  ring->Record(TracePoint::kWalAppend, TracePhase::kBegin, 1);
  const std::string json = ExportChromeTrace(tracer);
  ExpectStructurallyValidJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"worker_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"orphan\": \"end\""), std::string::npos);
  EXPECT_NE(json.find("\"orphan\": \"begin\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"view_flip\""), std::string::npos);
  tracer.ReleaseThreadRing(ring);
}

TEST(ChromeExportTest, WrappedMidSpanRingStaysValid) {
  Tracer tracer;
  tracer.SetRingEvents(16);
  TraceRing* ring = tracer.AcquireThreadRing();
  // Begin/end pairs flood a tiny ring so it wraps mid-span many times;
  // the export must remain structurally valid with orphans marked.
  for (uint64_t i = 0; i < 999; ++i) {
    ring->Record(TracePoint::kPush, TracePhase::kBegin, i);
    if (i % 3 != 0) ring->Record(TracePoint::kPush, TracePhase::kEnd, 0);
  }
  const std::string json = ExportChromeTrace(tracer);
  ExpectStructurallyValidJson(json);
  EXPECT_NE(json.find("\"events_overwritten\""), std::string::npos);
  tracer.ReleaseThreadRing(ring);
}

TEST(ChromeExportTest, EmptyTracerExportsValidJson) {
  Tracer tracer;
  const std::string json = ExportChromeTrace(tracer);
  ExpectStructurallyValidJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeExportTest, CrashReasonLandsInOtherData) {
  Tracer tracer;
  ChromeTraceOptions options;
  options.crash_reason = "wal_dead";
  const std::string json = ExportChromeTrace(tracer, options);
  EXPECT_NE(json.find("\"crash_reason\": \"wal_dead\""), std::string::npos);
}

// --- Prometheus export ----------------------------------------------------

TEST(PrometheusExportTest, FamiliesAndSamples) {
  MetricsRegistry registry;
  registry.GetCounter("pipeline.shard0.pushed").Add(17);
  registry.GetGauge("pipeline.view_epoch").Set(-3);
  Histogram& h = registry.GetHistogram("pipeline.merge_ticks");
  for (uint64_t v : {1u, 2u, 3u, 100u}) h.Record(v);
  const std::string text = ExportPrometheusText(registry);

  EXPECT_NE(
      text.find(
          "# TYPE streamq_pipeline_shard0_pushed_total counter"),
      std::string::npos);
  EXPECT_NE(text.find("streamq_pipeline_shard0_pushed_total 17"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE streamq_pipeline_view_epoch gauge"),
            std::string::npos);
  EXPECT_NE(text.find("streamq_pipeline_view_epoch -3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE streamq_pipeline_merge_ticks histogram"),
            std::string::npos);
  EXPECT_NE(text.find("streamq_pipeline_merge_ticks_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("streamq_pipeline_merge_ticks_sum 106"),
            std::string::npos);
  EXPECT_NE(text.find("streamq_pipeline_merge_ticks_count 4"),
            std::string::npos);
  // The summary's median comes from ValueAtQuantile.
  const std::string median_line =
      "streamq_pipeline_merge_ticks_quantiles{quantile=\"0.5\"} " +
      std::to_string(h.ValueAtQuantile(0.5));
  EXPECT_NE(text.find(median_line), std::string::npos);
}

TEST(PrometheusExportTest, BucketCountsAreCumulative) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("hist");
  for (uint64_t v = 0; v < 1000; ++v) h.Record(v);
  const std::string text = ExportPrometheusText(registry);
  // Walk the bucket lines in order; the counts must be non-decreasing and
  // end at the total count.
  uint64_t previous = 0;
  size_t pos = 0;
  int buckets_seen = 0;
  while ((pos = text.find("streamq_hist_bucket{le=", pos)) !=
         std::string::npos) {
    const size_t space = text.find('}', pos);
    const uint64_t count = std::stoull(text.substr(space + 2));
    EXPECT_GE(count, previous);
    previous = count;
    ++buckets_seen;
    pos = space;
  }
  EXPECT_EQ(buckets_seen, Histogram::kBucketCount);  // 31 finite + Inf
  EXPECT_EQ(previous, 1000u);
}

// --- crash-dump latch -----------------------------------------------------

TEST(CrashDumpTest, DumpsOncePerArm) {
  GlobalTraceGuard guard;
  const std::string path = ::testing::TempDir() + "streamq_crash_dump.json";
  std::remove(path.c_str());
  Tracer::Global().SetCrashDumpPath(path);
  obs::TraceRecord(TracePoint::kWalAppend, TracePhase::kBegin, 0);
  obs::TraceRecord(TracePoint::kWalAppend, TracePhase::kEnd, 0);

  EXPECT_TRUE(Tracer::Global().CrashDump("test_trigger"));
  EXPECT_TRUE(Tracer::Global().crash_dumped());
  const std::string first = ReadWholeFile(path);
  EXPECT_FALSE(first.empty());
  ExpectStructurallyValidJson(first);
  EXPECT_NE(first.find("\"crash_reason\": \"test_trigger\""),
            std::string::npos);
  EXPECT_NE(first.find("wal_append"), std::string::npos);

  // Latched: a second trigger neither rewrites nor fails loudly.
  EXPECT_FALSE(Tracer::Global().CrashDump("second_trigger"));
  // Re-arming re-opens it.
  Tracer::Global().RearmCrashDump();
  EXPECT_TRUE(Tracer::Global().CrashDump("third_trigger"));
  std::remove(path.c_str());
}

TEST(CrashDumpTest, UnarmedDumpIsANoop) {
  GlobalTraceGuard guard;
  EXPECT_FALSE(Tracer::Global().CrashDump("nobody_listening"));
}

// --- pipeline integration -------------------------------------------------

ingest::IngestOptions TracePipelineOptions() {
  ingest::IngestOptions options;
  options.sketch.algorithm = Algorithm::kRandom;
  options.sketch.eps = 0.05;
  options.sketch.log_universe = 20;
  options.sketch.seed = 7;
  options.shards = 2;
  options.ring_capacity = 256;
  options.batch_size = 64;
  options.publish_interval = 512;
  return options;
}

TEST(TracePipelineTest, FullPathShowsUpInTheExport) {
  GlobalTraceGuard guard;
  auto pipeline = ingest::IngestPipeline::Create(TracePipelineOptions());
  ASSERT_NE(pipeline, nullptr);
  for (uint64_t v = 0; v < 5000; ++v) {
    pipeline->Push(Update{v % 1024, +1});
  }
  pipeline->Flush();
  (void)pipeline->Query(0.5);
  pipeline->Stop();
  const std::string json = ExportChromeTrace(Tracer::Global());
  ExpectStructurallyValidJson(json);
  for (const char* name :
       {"\"push\"", "\"worker_batch\"", "\"sketch_update\"",
        "\"view_publish\"", "\"view_flip\"", "\"query\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

// The acceptance-criteria path: an armed crash point kills storage, the
// WAL writer goes dead, and the dying writer's MarkDead auto-dumps a
// flight record that contains the shard's WAL append/sync spans.
TEST(TracePipelineTest, ArmedCrashProducesDumpWithWalSpans) {
  GlobalTraceGuard guard;
  const std::string path =
      ::testing::TempDir() + "streamq_armed_crash_dump.json";
  std::remove(path.c_str());
  Tracer::Global().SetCrashDumpPath(path);

  durability::MemStorage disk;
  durability::FaultyStorage faulty(
      &disk, durability::StorageFaultSpec::Perfect(), /*seed=*/5);
  // Crash just before the 6th fsync: by then several append+sync spans are
  // on record; afterwards every storage op fails, so the next append's
  // roll-and-retry fails twice and the writer goes dead.
  faulty.ArmCrashAtOp(durability::StorageOp::kSync, 6);

  ingest::IngestOptions options = TracePipelineOptions();
  options.durability.enabled = true;
  options.durability.storage = &faulty;
  options.durability.dir = "dur";
  options.durability.sync_interval = 64;
  options.durability.checkpoint_interval = 1u << 30;  // keep it WAL-only
  options.durability.segment_bytes = 1u << 20;
  auto pipeline = ingest::IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);
  for (uint64_t v = 0; v < 3000; ++v) {
    pipeline->Push(Update{v % 512, +1});
  }
  pipeline->Flush();
  pipeline->Stop();

  EXPECT_TRUE(Tracer::Global().crash_dumped());
  const std::string dump = ReadWholeFile(path);
  ASSERT_FALSE(dump.empty());
  ExpectStructurallyValidJson(dump);
  EXPECT_NE(dump.find("\"crash_reason\": \"wal_dead\""), std::string::npos);
  EXPECT_NE(dump.find("\"wal_dead\""), std::string::npos);
  EXPECT_NE(dump.find("\"wal_append\""), std::string::npos);
  EXPECT_NE(dump.find("\"wal_sync\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TracePipelineTest, ConcurrentExportWhileRecording) {
  // Exporting while the pipeline's producer + workers are recording: the
  // TSan verify config proves the rings race-free; every interim export
  // must stay structurally valid.
  GlobalTraceGuard guard;
  auto pipeline = ingest::IngestPipeline::Create(TracePipelineOptions());
  ASSERT_NE(pipeline, nullptr);
  std::atomic<bool> stop{false};
  std::thread exporter([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = ExportChromeTrace(Tracer::Global());
      ExpectStructurallyValidJson(json);
    }
  });
  for (uint64_t v = 0; v < 20000; ++v) {
    pipeline->Push(Update{v % 4096, +1});
  }
  pipeline->Flush();
  stop.store(true, std::memory_order_relaxed);
  exporter.join();
  pipeline->Stop();
}

}  // namespace
}  // namespace streamq
