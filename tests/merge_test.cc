// Merge capability tests: which summaries merge, the accuracy of merged
// summaries against ground truth, and the error paths (incompatible
// merges refuse without mutating, per the library error-path contract).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exact/error_metrics.h"
#include "exact/exact_oracle.h"
#include "quantile/cash_register.h"
#include "quantile/dyadic_quantile.h"
#include "quantile/factory.h"
#include "quantile/fast_qdigest.h"
#include "stream/generators.h"
#include "util/memory.h"

namespace streamq {
namespace {

SketchConfig ConfigFor(Algorithm algorithm, double eps = 0.02) {
  SketchConfig config;
  config.algorithm = algorithm;
  config.eps = eps;
  config.log_universe = 20;
  config.seed = 7;
  return config;
}

std::vector<uint64_t> TestData(uint64_t n, uint64_t seed = 42) {
  DatasetSpec spec;
  spec.distribution = Distribution::kUniform;
  spec.n = n;
  spec.log_universe = 20;
  spec.seed = seed;
  return GenerateDataset(spec);
}

// ---------- capability flags ----------

TEST(MergeCapabilityTest, MergeableFamilies) {
  for (Algorithm a : {Algorithm::kRandom, Algorithm::kMrl99,
                      Algorithm::kFastQDigest, Algorithm::kDcm,
                      Algorithm::kDcs}) {
    const auto sketch = MakeSketch(ConfigFor(a));
    EXPECT_TRUE(sketch->Mergeable()) << sketch->Name();
    EXPECT_NE(sketch->Clone(), nullptr) << sketch->Name();
  }
  // The GK family is not mergeable: its tuple invariants are tied to one
  // linear scan of a single stream (DESIGN.md section 10).
  for (Algorithm a : {Algorithm::kGkTheory, Algorithm::kGkAdaptive,
                      Algorithm::kGkArray}) {
    const auto sketch = MakeSketch(ConfigFor(a));
    EXPECT_FALSE(sketch->Mergeable()) << sketch->Name();
    EXPECT_EQ(sketch->Clone(), nullptr) << sketch->Name();
  }
  // RSS merges in principle (linear sketch) but has no clone/serde path.
  const auto rss = MakeSketch(ConfigFor(Algorithm::kRss));
  EXPECT_TRUE(rss->Mergeable());
  EXPECT_EQ(rss->Clone(), nullptr);
}

TEST(MergeCapabilityTest, NonMergeableRefusesWithUnsupported) {
  auto a = MakeSketch(ConfigFor(Algorithm::kGkArray));
  auto b = MakeSketch(ConfigFor(Algorithm::kGkArray));
  for (uint64_t v = 0; v < 100; ++v) ASSERT_EQ(b->Insert(v), StreamqStatus::kOk);
  EXPECT_FALSE(a->CanMerge(*b));
  const uint64_t rejected_before = a->metrics().rejected.value();
  EXPECT_EQ(a->Merge(*b), StreamqStatus::kUnsupported);
  EXPECT_EQ(a->Count(), 0u);
  EXPECT_EQ(a->metrics().rejected.value(), rejected_before + 1);
  EXPECT_EQ(a->metrics().merges.value(), 0u);
}

// ---------- merged accuracy ----------

class MergeAccuracyTest : public ::testing::TestWithParam<Algorithm> {};

// Split a stream three ways, summarise the parts independently, fold them
// into a fresh sketch (exactly what the ingest publisher does), and check
// the merged summary against ground truth for the whole stream.
TEST_P(MergeAccuracyTest, MergedSketchMeetsErrorBound) {
  const double eps = 0.02;
  const SketchConfig config = ConfigFor(GetParam(), eps);
  const std::vector<uint64_t> data = TestData(60'000);

  std::vector<std::unique_ptr<QuantileSketch>> parts;
  for (int i = 0; i < 3; ++i) parts.push_back(MakeSketch(config));
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(parts[i % 3]->Insert(data[i]), StreamqStatus::kOk);
  }

  auto merged = MakeSketch(config);
  for (const auto& part : parts) {
    ASSERT_TRUE(merged->CanMerge(*part));
    ASSERT_EQ(merged->Merge(*part), StreamqStatus::kOk);
  }
  EXPECT_EQ(merged->metrics().merges.value(), 3u);
  EXPECT_EQ(merged->Count(), data.size());

  const ExactOracle oracle(data);
  const ErrorStats stats = EvaluateQuantiles(*merged, oracle, eps);
  // Deterministic bound for the q-digest; constant-factor slack for the
  // randomized summaries (same convention as the bench regression gate).
  const double slack = GetParam() == Algorithm::kFastQDigest ? 1.0 : 3.0;
  EXPECT_LE(stats.max_error, slack * eps)
      << merged->Name() << " merged max error";
}

// Merging into a non-empty sketch must summarise the union.
TEST_P(MergeAccuracyTest, MergeIntoNonEmpty) {
  const double eps = 0.02;
  const SketchConfig config = ConfigFor(GetParam(), eps);
  const std::vector<uint64_t> data = TestData(40'000, 99);

  auto left = MakeSketch(config);
  auto right = MakeSketch(config);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ((i < data.size() / 2 ? left : right)->Insert(data[i]),
              StreamqStatus::kOk);
  }
  ASSERT_EQ(left->Merge(*right), StreamqStatus::kOk);
  EXPECT_EQ(left->Count(), data.size());

  const ExactOracle oracle(data);
  const ErrorStats stats = EvaluateQuantiles(*left, oracle, eps);
  const double slack = GetParam() == Algorithm::kFastQDigest ? 1.0 : 3.0;
  EXPECT_LE(stats.max_error, slack * eps) << left->Name();
}

INSTANTIATE_TEST_SUITE_P(
    Mergeable, MergeAccuracyTest,
    ::testing::Values(Algorithm::kRandom, Algorithm::kMrl99,
                      Algorithm::kFastQDigest, Algorithm::kDcm,
                      Algorithm::kDcs),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return AlgorithmName(info.param);
    });

// ---------- error paths ----------

TEST(MergeErrorPathTest, SelfMergeRejected) {
  auto sketch = MakeSketch(ConfigFor(Algorithm::kRandom));
  for (uint64_t v = 0; v < 1000; ++v) {
    ASSERT_EQ(sketch->Insert(v), StreamqStatus::kOk);
  }
  EXPECT_FALSE(sketch->CanMerge(*sketch));
  EXPECT_EQ(sketch->Merge(*sketch), StreamqStatus::kMergeIncompatible);
  EXPECT_EQ(sketch->Count(), 1000u);
}

TEST(MergeErrorPathTest, DifferentTypesRejected) {
  auto random = MakeSketch(ConfigFor(Algorithm::kRandom));
  auto mrl = MakeSketch(ConfigFor(Algorithm::kMrl99));
  EXPECT_FALSE(random->CanMerge(*mrl));
  EXPECT_EQ(random->Merge(*mrl), StreamqStatus::kMergeIncompatible);
  EXPECT_EQ(mrl->Merge(*random), StreamqStatus::kMergeIncompatible);
}

TEST(MergeErrorPathTest, DcmNeverAbsorbsDcsEvenAtEqualDimensions) {
  // Same per-level dimensions and seed, different concrete estimators: the
  // shared dyadic base must still refuse the cross-merge.
  auto dcm = Dcm::WithWidth(64, 5, 16, 3);
  auto dcs = Dcs::WithWidth(64, 5, 16, 3);
  EXPECT_FALSE(dcm->CanMerge(*dcs));
  EXPECT_EQ(dcm->Merge(*dcs), StreamqStatus::kMergeIncompatible);
  EXPECT_EQ(dcs->Merge(*dcm), StreamqStatus::kMergeIncompatible);
}

TEST(MergeErrorPathTest, IncompatibleParametersRejectedWithoutMutation) {
  // Different eps (FastQDigest), different seed (DCS): both must refuse
  // leaving the target bit-identical -- checked through the serialized
  // image, the strongest equality the library can express.
  {
    FastQDigest a(0.02, 16), b(0.05, 16);
    for (uint64_t v = 0; v < 5000; ++v) {
      ASSERT_EQ(a.Insert(v % 1024), StreamqStatus::kOk);
      ASSERT_EQ(b.Insert(v % 512), StreamqStatus::kOk);
    }
    const std::string before = a.Serialize();
    const uint64_t rejected_before = a.metrics().rejected.value();
    EXPECT_EQ(a.Merge(b), StreamqStatus::kMergeIncompatible);
    EXPECT_EQ(a.Serialize(), before);
    EXPECT_EQ(a.metrics().rejected.value(), rejected_before + 1);
    EXPECT_EQ(a.metrics().merges.value(), 0u);
  }
  {
    SketchConfig c1 = ConfigFor(Algorithm::kDcs);
    SketchConfig c2 = c1;
    c2.seed = c1.seed + 1;  // different hash functions: counters don't align
    auto a = MakeSketch(c1);
    auto b = MakeSketch(c2);
    for (uint64_t v = 0; v < 5000; ++v) {
      ASSERT_EQ(a->Insert(v), StreamqStatus::kOk);
      ASSERT_EQ(b->Insert(v), StreamqStatus::kOk);
    }
    auto* dcs_a = dynamic_cast<Dcs*>(a.get());
    ASSERT_NE(dcs_a, nullptr);
    const std::string before = dcs_a->Serialize();
    EXPECT_EQ(a->Merge(*b), StreamqStatus::kMergeIncompatible);
    EXPECT_EQ(dcs_a->Serialize(), before);
  }
}

// ---------- clone ----------

TEST(CloneTest, CloneIsIndependentWithFreshMetrics) {
  for (Algorithm a : {Algorithm::kRandom, Algorithm::kMrl99,
                      Algorithm::kFastQDigest, Algorithm::kDcm,
                      Algorithm::kDcs}) {
    auto original = MakeSketch(ConfigFor(a));
    for (uint64_t v = 0; v < 10'000; ++v) {
      ASSERT_EQ(original->Insert(v % 4096), StreamqStatus::kOk);
    }
    auto clone = original->Clone();
    ASSERT_NE(clone, nullptr) << original->Name();
    EXPECT_EQ(clone->Count(), original->Count()) << original->Name();
    EXPECT_EQ(clone->metrics().inserts.value(), 0u) << original->Name();
    // Mutating the original must not leak into the clone.
    const uint64_t clone_count = clone->Count();
    for (uint64_t v = 0; v < 1000; ++v) {
      ASSERT_EQ(original->Insert(v), StreamqStatus::kOk);
    }
    EXPECT_EQ(clone->Count(), clone_count) << original->Name();
    // The clone answers like the original did at clone time. The inserted
    // multiset is v % 4096 for v in [0, 10000): values below 10000 % 4096 =
    // 1808 occur three times, the rest twice, so rank(2048) = 3 * 1808 +
    // 2 * (2048 - 1808) = 5904 exactly; allow the summary's eps slack.
    EXPECT_NEAR(static_cast<double>(clone->EstimateRank(2048)), 5904.0,
                0.05 * static_cast<double>(clone_count))
        << original->Name();
  }
}

// ---------- space accounting across merges ----------

TEST(MergeMemoryTest, MemoryBytesReflectsPostMergeStructure) {
  const std::vector<uint64_t> data = TestData(30'000, 5);
  for (Algorithm a : {Algorithm::kRandom, Algorithm::kMrl99,
                      Algorithm::kFastQDigest, Algorithm::kDcm,
                      Algorithm::kDcs}) {
    const SketchConfig config = ConfigFor(a);
    auto left = MakeSketch(config);
    auto right = MakeSketch(config);
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ((i % 2 ? left : right)->Insert(data[i]), StreamqStatus::kOk);
    }
    ASSERT_EQ(left->Merge(*right), StreamqStatus::kOk);
    // The accounting must describe the merged structure, not the merge
    // history: a structural copy of the merged summary reports the same
    // footprint.
    auto copy = left->Clone();
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(left->MemoryBytes(), copy->MemoryBytes()) << left->Name();
    EXPECT_GT(left->MemoryBytes(), 0u) << left->Name();
  }
}

TEST(MergeMemoryTest, QDigestMemoryTracksMergedNodeCount) {
  FastQDigest a(0.02, 16), b(0.02, 16);
  for (uint64_t v = 0; v < 20'000; ++v) {
    ASSERT_EQ(a.Insert(v % 60'000 % 65'536), StreamqStatus::kOk);
    ASSERT_EQ(b.Insert((v * 7919) % 65'536), StreamqStatus::kOk);
  }
  ASSERT_EQ(a.Merge(b), StreamqStatus::kOk);
  EXPECT_EQ(a.MemoryBytes(), a.NodeCount() * kBytesPerHashSlot);
}

}  // namespace
}  // namespace streamq
