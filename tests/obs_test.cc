// Tests for the observability layer (src/obs/): metric primitives, the
// registry, and the sketch-side instrumentation wired through
// QuantileSketch.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/sketch_metrics.h"
#include "quantile/cash_register.h"
#include "quantile/dyadic_quantile.h"
#include "quantile/factory.h"
#include "quantile/fast_qdigest.h"

namespace streamq {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::ScopedTimer;

// --- primitives ----------------------------------------------------------

TEST(ObsCounterTest, IncAddResetValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc();
  c.Add(40);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGaugeTest, SetAddResetValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.Set(-7);
  EXPECT_EQ(g.value(), -7);
  g.Add(10);
  EXPECT_EQ(g.value(), 3);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsHistogramTest, BucketIndexBoundaries) {
  // Bucket 0 holds only the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  for (int i = 1; i < Histogram::kBucketCount - 1; ++i) {
    const uint64_t lo = Histogram::BucketLowerBound(i);
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "lower bound of bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(2 * lo - 1), i)
        << "upper edge of bucket " << i;
  }
  // Everything at or beyond the last lower bound saturates into the last
  // bucket, up to the largest representable sample.
  const int last = Histogram::kBucketCount - 1;
  EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(last)), last);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), last);
}

TEST(ObsHistogramTest, RecordTracksCountSumMinMaxMean) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);

  h.Record(5);
  h.Record(0);
  h.Record(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 105u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 35.0);

  EXPECT_EQ(h.bucket(Histogram::BucketIndex(0)), 1u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(5)), 1u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(100)), 1u);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  for (int i = 0; i < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(h.bucket(i), 0u);
  }
}

TEST(ObsHistogramTest, BucketCountsMatchTotal) {
  Histogram h;
  for (uint64_t v = 0; v < 1000; ++v) h.Record(v * v);
  uint64_t total = 0;
  for (int i = 0; i < Histogram::kBucketCount; ++i) total += h.bucket(i);
  EXPECT_EQ(total, h.count());
}

TEST(ObsScopedTimerTest, RecordsOneSamplePerScope) {
  Histogram h;
  {
    ScopedTimer t(&h);
  }
  {
    ScopedTimer t(&h);
  }
  EXPECT_EQ(h.count(), 2u);
  // Null histogram: a no-op, not a crash.
  { ScopedTimer t(nullptr); }
}

// --- registry ------------------------------------------------------------

TEST(ObsRegistryTest, GetOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x");
  a.Inc();
  Counter& b = reg.GetCounter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(reg.CounterCount(), 1u);

  // The three kinds live in separate namespaces: one name per kind.
  reg.GetGauge("x").Set(9);
  reg.GetHistogram("x").Record(3);
  EXPECT_EQ(reg.GetCounter("x").value(), 1u);
  EXPECT_EQ(reg.GetGauge("x").value(), 9);
  EXPECT_EQ(reg.GetHistogram("x").count(), 1u);
}

TEST(ObsRegistryTest, FindReturnsNullForUnknownNames) {
  MetricsRegistry reg;
  reg.GetCounter("known");
  EXPECT_NE(reg.FindCounter("known"), nullptr);
  EXPECT_EQ(reg.FindCounter("unknown"), nullptr);
  EXPECT_EQ(reg.FindGauge("known"), nullptr);  // different kind namespace
  EXPECT_EQ(reg.FindHistogram("known"), nullptr);
}

TEST(ObsRegistryTest, ResetAllZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("c");
  c.Add(5);
  reg.GetGauge("g").Set(-3);
  reg.GetHistogram("h").Record(17);
  reg.ResetAll();
  EXPECT_EQ(c.value(), 0u);  // handed-out reference still valid
  EXPECT_EQ(reg.GetGauge("g").value(), 0);
  EXPECT_EQ(reg.GetHistogram("h").count(), 0u);
  EXPECT_EQ(reg.CounterCount(), 1u);
  EXPECT_EQ(reg.GaugeCount(), 1u);
  EXPECT_EQ(reg.HistogramCount(), 1u);
}

// --- sketch instrumentation ---------------------------------------------

TEST(SketchMetricsTest, BaseClassCountsUpdatesAndQueries) {
  GkArray sketch(0.01);
  for (uint64_t v = 0; v < 100; ++v) {
    ASSERT_EQ(sketch.Insert(v), StreamqStatus::kOk);
  }
  sketch.Query(0.5);
  sketch.QueryMany({0.1, 0.5, 0.9});
  EXPECT_EQ(sketch.Erase(1), StreamqStatus::kUnsupported);

  EXPECT_EQ(sketch.metrics().inserts.value(), 100u);
  EXPECT_EQ(sketch.metrics().queries.value(), 2u);  // batch counts once
  EXPECT_EQ(sketch.metrics().erases.value(), 0u);
  EXPECT_EQ(sketch.metrics().rejected.value(), 1u);
}

TEST(SketchMetricsTest, RejectedUpdatesAreCountedNotInserted) {
  FastQDigest digest(0.01, /*log_universe=*/8);
  EXPECT_EQ(digest.Insert(255), StreamqStatus::kOk);
  EXPECT_EQ(digest.Insert(256), StreamqStatus::kOutOfUniverse);
  EXPECT_EQ(digest.Count(), 1u);
  EXPECT_EQ(digest.metrics().inserts.value(), 1u);
  EXPECT_EQ(digest.metrics().rejected.value(), 1u);
}

TEST(SketchMetricsTest, TurnstileEraseIsCounted) {
  Dcs sketch(0.05, /*log_u=*/12, /*depth=*/5, /*seed=*/1);
  ASSERT_EQ(sketch.Insert(7), StreamqStatus::kOk);
  ASSERT_EQ(sketch.Erase(7), StreamqStatus::kOk);
  EXPECT_EQ(sketch.Erase(uint64_t{1} << 40), StreamqStatus::kOutOfUniverse);
  EXPECT_EQ(sketch.metrics().inserts.value(), 1u);
  EXPECT_EQ(sketch.metrics().erases.value(), 1u);
  EXPECT_EQ(sketch.metrics().rejected.value(), 1u);
}

TEST(SketchMetricsTest, EverySketchReportsCompactions) {
  // Enough stream to force at least one compaction event out of each
  // algorithm that has one (DCM/DCS/RSS are flat arrays: no compaction).
  for (Algorithm algorithm :
       {Algorithm::kGkTheory, Algorithm::kGkAdaptive, Algorithm::kGkArray,
        Algorithm::kFastQDigest, Algorithm::kMrl99, Algorithm::kRandom}) {
    SketchConfig config;
    config.algorithm = algorithm;
    config.eps = 0.05;
    config.log_universe = 16;
    auto sketch = MakeSketch(config);
    for (uint64_t v = 0; v < 20000; ++v) {
      sketch->Insert((v * 2654435761u) % 65536);
    }
    EXPECT_GT(sketch->metrics().compressions.value(), 0u) << sketch->Name();
    EXPECT_GT(sketch->metrics().compress_trigger.count(), 0u)
        << sketch->Name();
    EXPECT_GT(sketch->metrics().compress_ticks.count(), 0u) << sketch->Name();
  }
}

TEST(SketchMetricsTest, PublishMetricsFillsRegistryUnderPrefix) {
  GkTheory sketch(0.01);
  for (uint64_t v = 0; v < 5000; ++v) sketch.Insert(v % 977);
  sketch.Query(0.5);

  MetricsRegistry reg;
  sketch.PublishMetrics(reg, "gk");
  ASSERT_NE(reg.FindCounter("gk.inserts"), nullptr);
  ASSERT_NE(reg.FindCounter("gk.queries"), nullptr);
  ASSERT_NE(reg.FindGauge("gk.memory_bytes"), nullptr);
  ASSERT_NE(reg.FindHistogram("gk.compress_trigger"), nullptr);
  EXPECT_EQ(reg.FindCounter("gk.inserts")->value(), 5000u);
  EXPECT_EQ(reg.FindCounter("gk.queries")->value(), 1u);
  EXPECT_EQ(reg.FindGauge("gk.memory_bytes")->value(),
            static_cast<int64_t>(sketch.MemoryBytes()));
  EXPECT_GT(reg.FindCounter("gk.compressions")->value(), 0u);
  // Publish is a copy, not a drain: publishing twice is idempotent.
  sketch.PublishMetrics(reg, "gk");
  EXPECT_EQ(reg.FindCounter("gk.inserts")->value(), 5000u);
}

}  // namespace
}  // namespace streamq
