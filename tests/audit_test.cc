// Live accuracy audit plane tests (ctest -L audit): the reservoir shadow's
// sampling math, its serde discipline, the auditor's budget/guard scoring,
// and the end-to-end wiring through IngestPipeline and QuantileCluster.
//
// The statistical assertions are deterministic: every stream is generated
// from a fixed seed and every shadow is seed-deterministic, so an
// assertion that holds once holds forever. Tolerances still use the
// auditor's own z * sqrt(phi(1-phi)/k) guard shape rather than magic
// constants.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "durability/faulty_storage.h"
#include "durability/storage.h"
#include "ingest/ingest_pipeline.h"
#include "obs/audit.h"
#include "obs/metrics.h"

namespace streamq::obs {
namespace {

std::vector<uint64_t> UniformValues(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> values(n);
  for (auto& v : values) v = rng() >> 24;  // 40-bit universe
  return values;
}

/// Exact phi-quantile of `sorted` under the paper's rank convention.
uint64_t ExactQuantile(const std::vector<uint64_t>& sorted, double phi) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(phi * static_cast<double>(sorted.size())));
  if (rank > 0) --rank;
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

/// Normalized rank of `value` in `sorted` (fraction strictly below).
double ExactRank(const std::vector<uint64_t>& sorted, uint64_t value) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), value);
  return static_cast<double>(lo - sorted.begin()) /
         static_cast<double>(sorted.size());
}

// ---------------------------------------------------------------------------
// ReservoirShadow: sampling math
// ---------------------------------------------------------------------------

TEST(ReservoirShadow, FillPhaseHoldsTheExactMultiset) {
  ReservoirShadow shadow(64, /*seed=*/1);
  std::vector<uint64_t> values = {9, 3, 3, 7, 1, 100, 42};
  for (uint64_t v : values) shadow.Observe(v);
  EXPECT_EQ(shadow.stream_n(), values.size());
  EXPECT_EQ(shadow.size(), values.size());
  std::sort(values.begin(), values.end());
  EXPECT_EQ(shadow.SortedSample(), values);
}

TEST(ReservoirShadow, DeterministicInSeedAndSequence) {
  const std::vector<uint64_t> values = UniformValues(50'000, 7);
  ReservoirShadow a(512, 11), b(512, 11), c(512, 12);
  for (uint64_t v : values) {
    a.Observe(v);
    b.Observe(v);
    c.Observe(v);
  }
  EXPECT_EQ(a.SortedSample(), b.SortedSample());
  EXPECT_EQ(a.stream_n(), b.stream_n());
  // A different seed samples different positions of the same stream.
  EXPECT_NE(a.SortedSample(), c.SortedSample());
}

TEST(ReservoirShadow, BatchAndSpanMatchItemwiseExactly) {
  const std::vector<uint64_t> values = UniformValues(80'000, 3);
  ReservoirShadow itemwise(1024, 5), batched(1024, 5), spanned(1024, 5);
  for (uint64_t v : values) itemwise.Observe(v);
  for (size_t i = 0; i < values.size(); i += 333) {
    const size_t n = std::min<size_t>(333, values.size() - i);
    batched.ObserveBatch(values.data() + i, n);
    spanned.ObserveSpan(n, [&](size_t t) { return values[i + t]; });
  }
  EXPECT_EQ(itemwise.SortedSample(), batched.SortedSample());
  EXPECT_EQ(itemwise.SortedSample(), spanned.SortedSample());
  EXPECT_EQ(itemwise.stream_n(), batched.stream_n());
  EXPECT_EQ(itemwise.stream_n(), spanned.stream_n());
}

TEST(ReservoirShadow, RepeatedValueSpanEqualsRepeatedObserve) {
  ReservoirShadow looped(256, 9), spanned(256, 9);
  for (int round = 0; round < 40; ++round) {
    const uint64_t value = 1000 + static_cast<uint64_t>(round);
    for (int k = 0; k < 50; ++k) looped.Observe(value);
    spanned.ObserveSpan(50, [value](size_t) { return value; });
  }
  EXPECT_EQ(looped.SortedSample(), spanned.SortedSample());
  EXPECT_EQ(looped.stream_n(), spanned.stream_n());
}

TEST(ReservoirShadow, SampleQuantilesTrackTheExactStream) {
  constexpr size_t kN = 200'000;
  constexpr size_t kK = 4096;
  std::vector<uint64_t> values = UniformValues(kN, 17);
  ReservoirShadow shadow(kK, 23);
  shadow.ObserveBatch(values.data(), values.size());
  ASSERT_EQ(shadow.size(), kK);
  ASSERT_EQ(shadow.stream_n(), kN);
  std::sort(values.begin(), values.end());
  for (double phi : {0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    const uint64_t q = shadow.SampleQuantile(phi);
    const double err = std::fabs(ExactRank(values, q) - phi);
    // Binomial CI of a k-sample rank estimate plus discreteness; z = 5
    // (one-sided 3e-7) so this never flakes on a fixed seed.
    const double guard =
        5.0 * std::sqrt(phi * (1.0 - phi) / static_cast<double>(kK)) +
        1.0 / static_cast<double>(kK);
    EXPECT_LE(err, guard) << "phi=" << phi;
  }
}

TEST(ReservoirShadow, RankFractionsBracketTheSample) {
  ReservoirShadow shadow(16, 1);
  for (uint64_t v : {10, 20, 20, 30}) shadow.Observe(v);
  double lo = 0, hi = 0;
  shadow.SampleRankFractions(20, &lo, &hi);
  EXPECT_DOUBLE_EQ(lo, 0.25);  // one sample strictly below
  EXPECT_DOUBLE_EQ(hi, 0.75);  // three at or below
  shadow.SampleRankFractions(5, &lo, &hi);
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 0.0);
  shadow.SampleRankFractions(99, &lo, &hi);
  EXPECT_DOUBLE_EQ(lo, 1.0);
  EXPECT_DOUBLE_EQ(hi, 1.0);
}

TEST(ReservoirShadow, TaintIsSticky) {
  ReservoirShadow shadow(16, 1);
  EXPECT_FALSE(shadow.tainted());
  shadow.Taint();
  shadow.Observe(1);
  EXPECT_TRUE(shadow.tainted());
}

// ---------------------------------------------------------------------------
// ReservoirShadow: merge
// ---------------------------------------------------------------------------

TEST(ReservoirShadowMerge, ProportionsFollowStreamSizes) {
  // Part A holds 3x the stream of part B, with disjoint value ranges so
  // provenance is readable off the merged sample.
  constexpr uint64_t kSplit = uint64_t{1} << 48;
  const std::vector<uint64_t> a_vals = UniformValues(150'000, 31);
  std::vector<uint64_t> b_vals = UniformValues(50'000, 37);
  for (auto& v : b_vals) v |= kSplit;
  ReservoirShadow a(4096, 41), b(4096, 43);
  a.ObserveBatch(a_vals.data(), a_vals.size());
  b.ObserveBatch(b_vals.data(), b_vals.size());

  constexpr size_t kMergedK = 2048;
  auto merged =
      ReservoirShadow::Merged({&a, &b}, kMergedK, /*seed=*/47);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->stream_n(), a.stream_n() + b.stream_n());
  ASSERT_EQ(merged->size(), kMergedK);

  size_t from_a = 0;
  for (uint64_t v : merged->SortedSample()) from_a += (v < kSplit) ? 1 : 0;
  const double frac = static_cast<double>(from_a) / kMergedK;
  // Hypergeometric draw at 75/25 weights: 5 sigma on k = 2048.
  const double tol = 5.0 * std::sqrt(0.75 * 0.25 / kMergedK);
  EXPECT_NEAR(frac, 0.75, tol);

  // Determinism: the same parts and seed reproduce the same merge.
  auto again = ReservoirShadow::Merged({&a, &b}, kMergedK, 47);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->SortedSample(), merged->SortedSample());
}

TEST(ReservoirShadowMerge, TaintedPartTaintsTheMerge) {
  ReservoirShadow a(64, 1), b(64, 2);
  for (uint64_t v = 0; v < 100; ++v) {
    a.Observe(v);
    b.Observe(v + 1000);
  }
  b.Taint();
  auto merged = ReservoirShadow::Merged({&a, &b}, 64, 3);
  ASSERT_NE(merged, nullptr);
  EXPECT_TRUE(merged->tainted());
  EXPECT_EQ(ReservoirShadow::Merged({}, 64, 3), nullptr);
}

TEST(ReservoirShadowMerge, CloneIsIndependentAndIdentical) {
  const std::vector<uint64_t> values = UniformValues(20'000, 5);
  ReservoirShadow shadow(512, 7);
  shadow.ObserveBatch(values.data(), values.size());
  auto clone = shadow.Clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->SortedSample(), shadow.SortedSample());
  EXPECT_EQ(clone->stream_n(), shadow.stream_n());
  // Diverge the original; the clone must not move (and both must keep
  // producing the identical continuation from the cloned RNG state).
  auto twin = shadow.Clone();
  shadow.Observe(1);
  EXPECT_EQ(clone->SortedSample(), twin->SortedSample());
  twin->Observe(1);
  EXPECT_EQ(shadow.SortedSample(), twin->SortedSample());
}

// ---------------------------------------------------------------------------
// ReservoirShadow: serde
// ---------------------------------------------------------------------------

TEST(ReservoirShadowSerde, RoundTripContinuesTheExactSequence) {
  const std::vector<uint64_t> head = UniformValues(30'000, 51);
  const std::vector<uint64_t> tail = UniformValues(30'000, 53);
  ReservoirShadow original(1024, 55);
  original.ObserveBatch(head.data(), head.size());
  auto restored = ReservoirShadow::Restore(original.Snapshot());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->SortedSample(), original.SortedSample());
  EXPECT_EQ(restored->stream_n(), original.stream_n());
  EXPECT_EQ(restored->capacity(), original.capacity());
  // The restored shadow continues the identical sampling sequence: this is
  // the property that makes a recovered pipeline's audits reproducible.
  original.ObserveBatch(tail.data(), tail.size());
  restored->ObserveBatch(tail.data(), tail.size());
  EXPECT_EQ(restored->SortedSample(), original.SortedSample());
  EXPECT_EQ(restored->stream_n(), original.stream_n());
}

TEST(ReservoirShadowSerde, TaintSurvivesTheRoundTrip) {
  ReservoirShadow shadow(32, 1);
  shadow.Observe(5);
  shadow.Taint();
  auto restored = ReservoirShadow::Restore(shadow.Snapshot());
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(restored->tainted());
}

TEST(ReservoirShadowSerde, EveryByteFlipRejected) {
  ReservoirShadow shadow(64, 9);
  const std::vector<uint64_t> values = UniformValues(500, 61);
  shadow.ObserveBatch(values.data(), values.size());
  const std::string frame = shadow.Snapshot();
  ASSERT_FALSE(frame.empty());
  for (size_t i = 0; i < frame.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string bad = frame;
      bad[i] = static_cast<char>(static_cast<uint8_t>(bad[i]) ^ flip);
      EXPECT_EQ(ReservoirShadow::Restore(bad), nullptr)
          << "byte " << i << " flip 0x" << std::hex << int(flip);
    }
  }
}

TEST(ReservoirShadowSerde, TruncationAndTrailingBytesRejected) {
  ReservoirShadow shadow(64, 9);
  const std::vector<uint64_t> values = UniformValues(500, 67);
  shadow.ObserveBatch(values.data(), values.size());
  const std::string frame = shadow.Snapshot();
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_EQ(ReservoirShadow::Restore(frame.substr(0, len)), nullptr)
        << "length " << len;
  }
  EXPECT_EQ(ReservoirShadow::Restore(frame + 'x'), nullptr);
  EXPECT_EQ(ReservoirShadow::Restore(std::string()), nullptr);
}

// ---------------------------------------------------------------------------
// AccuracyAuditor
// ---------------------------------------------------------------------------

TEST(AuditSlack, FollowsTheRepoErrorSlackConvention) {
  // Deterministic summaries audit at 1x eps, randomized at 3x; unknown
  // names get the conservative 3x (check_bench_json.py's ERROR_SLACK).
  EXPECT_DOUBLE_EQ(AuditSlackForAlgorithm("GKTheory"), 1.0);
  EXPECT_DOUBLE_EQ(AuditSlackForAlgorithm("GKAdaptive"), 1.0);
  EXPECT_DOUBLE_EQ(AuditSlackForAlgorithm("GKArray"), 1.0);
  EXPECT_DOUBLE_EQ(AuditSlackForAlgorithm("FastQDigest"), 1.0);
  EXPECT_DOUBLE_EQ(AuditSlackForAlgorithm("Random"), 3.0);
  EXPECT_DOUBLE_EQ(AuditSlackForAlgorithm("MRL99"), 3.0);
  EXPECT_DOUBLE_EQ(AuditSlackForAlgorithm("DCS"), 3.0);
  EXPECT_DOUBLE_EQ(AuditSlackForAlgorithm("never-heard-of-it"), 3.0);

  // ResolveAuditConfig fills only the zeros: eps from the sketch, slack by
  // algorithm. Values the caller set pass through.
  AuditConfig config;
  AuditConfig resolved = ResolveAuditConfig(config, 0.02, "GKArray");
  EXPECT_DOUBLE_EQ(resolved.eps, 0.02);
  EXPECT_DOUBLE_EQ(resolved.slack, 1.0);
  config.eps = 0.004;
  config.slack = 2.0;
  resolved = ResolveAuditConfig(config, 0.02, "GKArray");
  EXPECT_DOUBLE_EQ(resolved.eps, 0.004);
  EXPECT_DOUBLE_EQ(resolved.slack, 2.0);
}

class AccuracyAuditorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    values_ = UniformValues(100'000, 71);
    shadow_ = std::make_unique<ReservoirShadow>(4096, 73);
    shadow_->ObserveBatch(values_.data(), values_.size());
    std::sort(values_.begin(), values_.end());
  }

  AuditConfig Config() const {
    AuditConfig config;
    config.enabled = true;
    config.eps = 0.01;
    config.slack = 1.0;
    return config;
  }

  std::vector<uint64_t> values_;  // sorted after SetUp
  std::unique_ptr<ReservoirShadow> shadow_;
};

TEST_F(AccuracyAuditorTest, ExactAnswersAuditClean) {
  AccuracyAuditor auditor(Config());
  const AuditReport& report = auditor.Audit(
      [&](double phi) { return ExactQuantile(values_, phi); },
      values_.size(), *shadow_);
  EXPECT_TRUE(report.valid);
  EXPECT_FALSE(report.tainted);
  EXPECT_EQ(report.violations, 0);
  EXPECT_EQ(report.shadow_k, 4096u);
  EXPECT_EQ(report.shadow_n, values_.size());
  EXPECT_DOUBLE_EQ(report.gap_frac, 0.0);
  EXPECT_DOUBLE_EQ(report.eps_budget, 0.01);
  ASSERT_EQ(report.probes.size(), Config().phis.size());
  // Exact answers: the only observed error is the shadow's own sampling
  // noise, well under each probe's budget.
  for (const AuditProbe& probe : report.probes) {
    EXPECT_FALSE(probe.violation) << "phi=" << probe.phi;
    EXPECT_LT(probe.observed_err, probe.budget);
  }
  EXPECT_EQ(auditor.rounds(), 1u);
  EXPECT_EQ(auditor.violations_total(), 0u);
  EXPECT_EQ(auditor.consecutive_violation_rounds(), 0u);
}

TEST_F(AccuracyAuditorTest, RankShiftBeyondBudgetFiresEveryProbe) {
  AccuracyAuditor auditor(Config());
  // A systematically lying sketch: every answer is the quantile 8 rank
  // points high -- beyond eps + guard at every grid phi.
  const AuditReport& report = auditor.Audit(
      [&](double phi) {
        return ExactQuantile(values_, std::min(phi + 0.08, 1.0));
      },
      values_.size(), *shadow_);
  EXPECT_TRUE(report.valid);
  EXPECT_GT(report.violations, 0);
  EXPECT_GT(report.max_observed_err, 0.05);
  EXPECT_EQ(auditor.violations_total(),
            static_cast<uint64_t>(report.violations));
  EXPECT_EQ(auditor.consecutive_violation_rounds(), 1u);

  // A second lying round extends the streak; a clean round resets it.
  auditor.Audit(
      [&](double phi) {
        return ExactQuantile(values_, std::min(phi + 0.08, 1.0));
      },
      values_.size(), *shadow_);
  EXPECT_EQ(auditor.consecutive_violation_rounds(), 2u);
  auditor.Audit([&](double phi) { return ExactQuantile(values_, phi); },
                values_.size(), *shadow_);
  EXPECT_EQ(auditor.consecutive_violation_rounds(), 0u);
  EXPECT_EQ(auditor.rounds(), 3u);
}

TEST_F(AccuracyAuditorTest, CoverageGapWidensTheBudget) {
  AccuracyAuditor auditor(Config());
  // The sketch claims twice the elements the shadow saw (a recovered
  // checkpoint prefix): gap_frac = 0.5 lands in every probe's guard, so
  // even the 8-point lie from the previous test audits in-budget.
  const uint64_t sketch_count = 2 * static_cast<uint64_t>(values_.size());
  const AuditReport& report = auditor.Audit(
      [&](double phi) {
        return ExactQuantile(values_, std::min(phi + 0.08, 1.0));
      },
      sketch_count, *shadow_);
  EXPECT_TRUE(report.valid);
  EXPECT_NEAR(report.gap_frac, 0.5, 1e-9);
  EXPECT_EQ(report.violations, 0);
}

TEST_F(AccuracyAuditorTest, TooFewSamplesOrTaintInvalidateTheRound) {
  AccuracyAuditor auditor(Config());
  ReservoirShadow thin(4096, 1);
  for (uint64_t v = 0; v < 100; ++v) thin.Observe(v);  // < min_samples
  const AuditReport& sparse = auditor.Audit(
      [](double) { return uint64_t{0}; }, 100, thin);
  EXPECT_FALSE(sparse.valid);

  shadow_->Taint();
  const AuditReport& tainted = auditor.Audit(
      [&](double phi) { return ExactQuantile(values_, phi); },
      values_.size(), *shadow_);
  EXPECT_FALSE(tainted.valid);
  EXPECT_TRUE(tainted.tainted);

  // Invalid rounds count as rounds but never as violations, and leave the
  // consecutive-violation streak unchanged.
  EXPECT_EQ(auditor.rounds(), 2u);
  EXPECT_EQ(auditor.violations_total(), 0u);
  EXPECT_EQ(auditor.consecutive_violation_rounds(), 0u);
}

TEST(AuditExport, PublishesTheDocumentedFamilies) {
  AuditConfig config;
  config.enabled = true;
  config.eps = 0.01;
  config.slack = 1.0;
  AccuracyAuditor auditor(config);
  ReservoirShadow shadow(1024, 3);
  const std::vector<uint64_t> values = UniformValues(50'000, 79);
  shadow.ObserveBatch(values.data(), values.size());
  auditor.Audit([](double) { return uint64_t{1}; }, values.size(), shadow);

  MetricsRegistry registry;
  PublishAuditMetrics(auditor, registry, "audit");
  EXPECT_EQ(registry.GetCounter("audit.rounds").value(), 1u);
  EXPECT_GE(registry.GetCounter("audit.violations").value(), 0u);
  EXPECT_GT(registry.GetGauge("audit.shadow_bytes").value(), 0);
  EXPECT_GT(registry.GetHistogram("audit.observed_err").count(), 0u);
}

TEST(AuditExport, FormatAuditTableShowsProbesAndVerdict) {
  AuditConfig config;
  config.enabled = true;
  config.eps = 0.01;
  config.slack = 3.0;
  AccuracyAuditor auditor(config);
  ReservoirShadow shadow(4096, 3);
  std::vector<uint64_t> values = UniformValues(100'000, 83);
  shadow.ObserveBatch(values.data(), values.size());
  std::sort(values.begin(), values.end());
  auditor.Audit([&](double phi) { return ExactQuantile(values, phi); },
                values.size(), shadow);
  const std::string table = FormatAuditTable(auditor.last());
  EXPECT_NE(table.find("phi"), std::string::npos);
  EXPECT_NE(table.find("0.500"), std::string::npos);
  EXPECT_NE(table.find("within budget"), std::string::npos);
}

// ---------------------------------------------------------------------------
// IngestPipeline wiring
// ---------------------------------------------------------------------------

ingest::IngestOptions AuditedPipelineOptions(Algorithm algorithm, double eps) {
  ingest::IngestOptions options;
  options.sketch.algorithm = algorithm;
  options.sketch.eps = eps;
  options.sketch.log_universe = 24;
  options.sketch.seed = 3;
  options.shards = 2;
  options.audit.enabled = true;
  return options;
}

TEST(PipelineAudit, HealthyPipelineAuditsClean) {
  auto pipeline = ingest::IngestPipeline::Create(
      AuditedPipelineOptions(Algorithm::kRandom, 0.01));
  ASSERT_NE(pipeline, nullptr);
  ASSERT_TRUE(pipeline->AuditEnabled());
  const std::vector<uint64_t> values = UniformValues(300'000, 89);
  for (uint64_t v : values) pipeline->Push(Update{v, +1});
  pipeline->Flush();
  const AuditReport report = pipeline->AuditNow();
  EXPECT_TRUE(report.valid);
  EXPECT_FALSE(report.tainted);
  EXPECT_EQ(report.violations, 0);
  EXPECT_EQ(report.shadow_n, values.size());
  // eps resolved from the sketch, slack from the ERROR_SLACK convention
  // (Random is randomized: 3x).
  EXPECT_DOUBLE_EQ(pipeline->audit_config().eps, 0.01);
  EXPECT_DOUBLE_EQ(pipeline->audit_config().slack, 3.0);

  const auto counters = pipeline->GetAuditCounters();
  EXPECT_EQ(counters.rounds, 1u);
  EXPECT_EQ(counters.violations, 0u);
  EXPECT_EQ(counters.unhealthy_streak, 0u);
  EXPECT_DOUBLE_EQ(counters.eps_budget, 0.03);
  EXPECT_EQ(pipeline->LastAuditReport().violations, 0);
  pipeline->Stop();
}

TEST(PipelineAudit, AuditDisabledByDefault) {
  ingest::IngestOptions options;
  options.sketch.algorithm = Algorithm::kRandom;
  options.sketch.eps = 0.05;
  options.sketch.log_universe = 20;
  auto pipeline = ingest::IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);
  EXPECT_FALSE(pipeline->AuditEnabled());
  const AuditReport report = pipeline->AuditNow();
  EXPECT_FALSE(report.valid);
  EXPECT_EQ(pipeline->CloneAuditShadow(), nullptr);
  pipeline->Stop();
}

TEST(PipelineAudit, UnderProvisionedSloIsDetected) {
  // The system catching its own lies: the sketch honestly meets its own
  // eps = 0.05, but the audit SLO demands eps = 0.004 -- under-provisioned
  // for the accuracy actually being served, so the auditor must fire.
  auto options = AuditedPipelineOptions(Algorithm::kRandom, 0.05);
  options.audit.eps = 0.004;
  options.audit.slack = 1.0;
  options.audit.reservoir = 16384;  // tight guard: 4 * sqrt(.25/16k) ~ 1.6%
  auto pipeline = ingest::IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);
  const std::vector<uint64_t> values = UniformValues(300'000, 97);
  for (uint64_t v : values) pipeline->Push(Update{v, +1});
  pipeline->Flush();
  const AuditReport report = pipeline->AuditNow();
  EXPECT_TRUE(report.valid);
  EXPECT_GT(report.violations, 0);
  EXPECT_GT(pipeline->GetAuditCounters().violations, 0u);
  EXPECT_GT(pipeline->GetAuditCounters().unhealthy_streak, 0u);
  pipeline->Stop();
}

TEST(PipelineAudit, TurnstileDeleteTaintsTheShadow) {
  auto options = AuditedPipelineOptions(Algorithm::kDcs, 0.05);
  options.sketch.log_universe = 20;
  auto pipeline = ingest::IngestPipeline::Create(options);
  ASSERT_NE(pipeline, nullptr);
  const std::vector<uint64_t> values = UniformValues(10'000, 101);
  for (uint64_t v : values) pipeline->Push(Update{v & 0xFFFFF, +1});
  pipeline->Push(Update{values[0] & 0xFFFFF, -1});
  pipeline->Flush();
  const AuditReport report = pipeline->AuditNow();
  EXPECT_TRUE(report.tainted);
  EXPECT_FALSE(report.valid);
  pipeline->Stop();
}

TEST(PipelineAudit, CloneAuditShadowIsDeterministic) {
  const std::vector<uint64_t> values = UniformValues(100'000, 103);
  std::vector<std::vector<uint64_t>> samples;
  for (int run = 0; run < 2; ++run) {
    auto pipeline = ingest::IngestPipeline::Create(
        AuditedPipelineOptions(Algorithm::kRandom, 0.02));
    ASSERT_NE(pipeline, nullptr);
    for (uint64_t v : values) pipeline->Push(Update{v, +1});
    pipeline->Flush();
    auto shadow = pipeline->CloneAuditShadow();
    ASSERT_NE(shadow, nullptr);
    samples.push_back(shadow->SortedSample());
    EXPECT_EQ(shadow->stream_n(), values.size());
    pipeline->Stop();
  }
  // Same seeds, same stream => the same global sample, run to run.
  EXPECT_EQ(samples[0], samples[1]);
}

TEST(PipelineAudit, WalReplayRebuildsTheUncrashedShadow) {
  // An audited, durable pipeline crashes before any checkpoint, so
  // recovery rebuilds every shard from its WAL tail alone, through the
  // workers' apply path. Replay plus the deduped re-push from ResumeSeq()
  // shows each shard's shadow the same values in the same order as an
  // uninterrupted run, so the merged shadow must be byte-identical.
  const std::vector<uint64_t> values = UniformValues(20'000, 113);
  auto options = AuditedPipelineOptions(Algorithm::kRandom, 0.02);
  options.durability.enabled = true;
  options.durability.dir = "audit";
  options.durability.sync_interval = 256;
  options.durability.checkpoint_interval = uint64_t{1} << 40;  // WAL only

  durability::MemStorage reference_disk;
  options.durability.storage = &reference_disk;
  auto reference = ingest::IngestPipeline::Create(options);
  ASSERT_NE(reference, nullptr);
  for (uint64_t v : values) reference->Push(Update{v, +1});
  reference->Flush();
  const auto reference_shadow = reference->CloneAuditShadow();
  ASSERT_NE(reference_shadow, nullptr);
  reference->Stop();

  durability::MemStorage disk;  // what survives the crash
  {
    durability::FaultyStorage faulty(
        &disk, durability::StorageFaultSpec::Perfect(), /*seed=*/7);
    // Storage dies just before the 6th fsync, well inside the stream.
    faulty.ArmCrashAtOp(durability::StorageOp::kSync, 6);
    options.durability.storage = &faulty;
    auto crashed = ingest::IngestPipeline::Create(options);
    ASSERT_NE(crashed, nullptr);
    for (uint64_t v : values) crashed->Push(Update{v, +1});
    crashed->Flush();
    EXPECT_TRUE(faulty.crashed());
    EXPECT_EQ(crashed->stats().checkpoints.load(), 0u);
    faulty.CrashNow();
  }  // the final checkpoint of Stop() hits dead storage

  options.durability.storage = &disk;
  auto recovered = ingest::IngestPipeline::Create(options);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->recovery().checkpoint_id, 0u);
  EXPECT_GT(recovered->recovery().replayed_updates, 0u);
  ASSERT_LE(recovered->ResumeSeq(), values.size()) << "nothing to re-push";
  for (uint64_t seq = recovered->ResumeSeq(); seq <= values.size(); ++seq) {
    recovered->Push(Update{values[seq - 1], +1});
  }
  recovered->Flush();
  const auto shadow = recovered->CloneAuditShadow();
  ASSERT_NE(shadow, nullptr);
  EXPECT_EQ(shadow->stream_n(), values.size());
  // Compared as a bool: a failing EXPECT_EQ would dump two binary frames.
  EXPECT_TRUE(shadow->Snapshot() == reference_shadow->Snapshot())
      << "the recovered shadow differs from the uncrashed one";
}

// ---------------------------------------------------------------------------
// Cluster wiring
// ---------------------------------------------------------------------------

cluster::ClusterOptions AuditedClusterOptions() {
  cluster::ClusterOptions options;
  options.nodes = 2;
  options.node_pipeline.sketch.algorithm = Algorithm::kRandom;
  options.node_pipeline.sketch.eps = 0.02;
  options.node_pipeline.sketch.log_universe = 24;
  options.node_pipeline.sketch.seed = 5;
  options.node_pipeline.shards = 1;
  options.node_pipeline.audit.enabled = true;
  return options;
}

TEST(ClusterAudit, GlobalMergedAnswerAuditsClean) {
  auto cluster = cluster::QuantileCluster::Create(AuditedClusterOptions());
  ASSERT_NE(cluster, nullptr);
  const std::vector<uint64_t> values = UniformValues(120'000, 107);
  for (uint64_t v : values) cluster->Append(v);
  ASSERT_TRUE(cluster->Quiesce());
  const AuditReport report = cluster->AuditGlobal();
  EXPECT_TRUE(report.valid);
  EXPECT_EQ(report.violations, 0)
      << "merge-induced error beyond the merged budget";
  EXPECT_EQ(report.shadow_n, values.size());
  EXPECT_LT(report.gap_frac, 0.01);
  // eps resolved from the sketch, slack 3x for Random.
  EXPECT_DOUBLE_EQ(report.eps_budget, 0.06);
}

TEST(ClusterAudit, DeadNodeLandsInTheCoverageGap) {
  auto cluster = cluster::QuantileCluster::Create(AuditedClusterOptions());
  ASSERT_NE(cluster, nullptr);
  const std::vector<uint64_t> values = UniformValues(120'000, 109);
  for (uint64_t v : values) cluster->Append(v);
  ASSERT_TRUE(cluster->Quiesce());
  cluster->KillNode(1);
  // The coordinator keeps node 1's accepted state in the global answer,
  // but its shadow is gone: the elements it covered become coverage gap,
  // not false violations.
  const AuditReport report = cluster->AuditGlobal();
  EXPECT_TRUE(report.valid);
  EXPECT_EQ(report.violations, 0);
  EXPECT_GT(report.gap_frac, 0.3);  // ~half the stream, minus routing skew
  EXPECT_LT(report.shadow_n, values.size());
}

TEST(ClusterAudit, UnauditedNodesReportInvalid) {
  auto options = AuditedClusterOptions();
  options.node_pipeline.audit.enabled = false;
  auto cluster = cluster::QuantileCluster::Create(options);
  ASSERT_NE(cluster, nullptr);
  for (uint64_t v = 0; v < 1000; ++v) cluster->Append(v);
  ASSERT_TRUE(cluster->Quiesce());
  EXPECT_FALSE(cluster->AuditGlobal().valid);
}

}  // namespace
}  // namespace streamq::obs
