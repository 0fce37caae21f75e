// Tests for the turnstile quantile algorithms DCM / DCS / RSS.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "exact/error_metrics.h"
#include "exact/exact_oracle.h"
#include "quantile/dyadic_quantile.h"
#include "stream/generators.h"

namespace streamq {
namespace {

TEST(DyadicQuantileTest, SupportsDeletion) {
  Dcs dcs(0.05, 16);
  Dcm dcm(0.05, 16);
  EXPECT_TRUE(dcs.SupportsDeletion());
  EXPECT_TRUE(dcm.SupportsDeletion());
}

TEST(DyadicQuantileTest, SmallLevelsAreExact) {
  // With log_u = 16 and a ~1000-counter sketch, the top levels (reduced
  // universe <= sketch size) must be exact.
  Dcs dcs(0.05, 16);
  EXPECT_TRUE(dcs.LevelIsExact(15));  // 2 cells
  EXPECT_TRUE(dcs.LevelIsExact(16)); // root
  EXPECT_FALSE(dcs.LevelIsExact(0)); // 65536 cells
}

TEST(DyadicQuantileTest, CountTracksInsertMinusErase) {
  Dcs dcs(0.1, 12);
  for (int i = 0; i < 100; ++i) dcs.Insert(i);
  for (int i = 0; i < 40; ++i) dcs.Erase(i);
  EXPECT_EQ(dcs.Count(), 60u);
}

TEST(DyadicQuantileTest, DeletionsRemoveAllImpact) {
  // The paper: "Deleting a previously inserted element completely removes
  // its impact on the data structure."
  DatasetSpec spec;
  spec.n = 20'000;
  spec.log_universe = 16;
  spec.seed = 3;
  const auto data = GenerateDataset(spec);
  DatasetSpec noise_spec = spec;
  noise_spec.seed = 99;
  const auto noise = GenerateDataset(noise_spec);

  Dcs with_churn(0.02, 16, 7, 5);
  Dcs clean(0.02, 16, 7, 5);
  for (uint64_t v : data) clean.Insert(v);
  // Interleave the real stream with transient noise.
  for (size_t i = 0; i < data.size(); ++i) {
    with_churn.Insert(noise[i]);
    with_churn.Insert(data[i]);
    with_churn.Erase(noise[i]);
  }
  for (double phi : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_EQ(with_churn.Query(phi), clean.Query(phi)) << phi;
  }
}

using TurnstileParam = std::tuple<std::string, double, int>;
class TurnstileErrorTest : public ::testing::TestWithParam<TurnstileParam> {};

TEST_P(TurnstileErrorTest, ObservedErrorWithinEps) {
  const auto& [name, eps, log_u] = GetParam();
  DatasetSpec spec;
  spec.n = 60'000;
  spec.log_universe = log_u;
  spec.seed = 17;
  const auto data = GenerateDataset(spec);
  const ExactOracle oracle(data);

  std::unique_ptr<QuantileSketch> sketch;
  if (name == "DCM") sketch = std::make_unique<Dcm>(eps, log_u, 7, 11);
  if (name == "DCS") sketch = std::make_unique<Dcs>(eps, log_u, 7, 11);
  ASSERT_NE(sketch, nullptr);
  for (uint64_t v : data) sketch->Insert(v);
  const ErrorStats stats = EvaluateQuantiles(*sketch, oracle, eps);
  // Probabilistic guarantee; fixed seed makes this a regression check. The
  // paper observes max errors around eps/10 for these algorithms.
  EXPECT_LE(stats.max_error, eps) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TurnstileErrorTest,
    ::testing::Combine(::testing::Values("DCM", "DCS"),
                       ::testing::Values(0.05, 0.01, 0.002),
                       ::testing::Values(16, 24)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_eps" +
             std::to_string(static_cast<int>(1.0 / std::get<1>(info.param))) +
             "_logu" + std::to_string(std::get<2>(info.param));
    });

TEST(TurnstileErrorTest, AccurateAfterHeavyChurn) {
  const double eps = 0.02;
  DatasetSpec spec;
  spec.n = 30'000;
  spec.log_universe = 20;
  spec.seed = 21;
  const auto data = GenerateDataset(spec);
  const auto updates = MakeTurnstileWorkload(data, 0.3, spec.Universe(), 5);
  Dcs dcs(eps, 20, 7, 9);
  for (const Update& u : updates) {
    if (u.delta > 0) {
      dcs.Insert(u.value);
    } else {
      dcs.Erase(u.value);
    }
  }
  EXPECT_EQ(dcs.Count(), data.size());
  const ExactOracle oracle(data);
  ErrorStats stats = EvaluateQuantiles(dcs, oracle, eps);
  EXPECT_LE(stats.max_error, eps);
}

TEST(DyadicQuantileTest, RankEstimateMatchesTruthWithinEps) {
  const double eps = 0.01;
  DatasetSpec spec;
  spec.n = 50'000;
  spec.log_universe = 20;
  spec.seed = 31;
  const auto data = GenerateDataset(spec);
  const ExactOracle oracle(data);
  Dcs dcs(eps, 20, 7, 3);
  for (uint64_t v : data) dcs.Insert(v);
  for (uint64_t probe = 0; probe < (1 << 20); probe += 1 << 15) {
    const double truth = static_cast<double>(oracle.Rank(probe));
    EXPECT_NEAR(static_cast<double>(dcs.EstimateRank(probe)), truth,
                eps * spec.n);
  }
}

TEST(DyadicQuantileTest, DcsUsesLessSpaceThanDcmAtSameEps) {
  // DCM width = log(u)/eps vs DCS width = sqrt(log u)/eps.
  Dcm dcm(0.001, 32);
  Dcs dcs(0.001, 32);
  EXPECT_GT(dcm.MemoryBytes(), 2 * dcs.MemoryBytes());
}

TEST(DyadicQuantileTest, SmallerUniverseSmallerSketch) {
  Dcs wide(0.01, 32);
  Dcs narrow(0.01, 16);
  EXPECT_GT(wide.MemoryBytes(), narrow.MemoryBytes());
}

TEST(DyadicQuantileTest, WithWidthHonoursDimensions) {
  auto dcs = Dcs::WithWidth(128, 5, 20, 1);
  // All levels with reduced universe > 640 use a 128x5 sketch.
  EXPECT_FALSE(dcs->LevelIsExact(0));
  EXPECT_TRUE(dcs->LevelIsExact(19));
  dcs->Insert(7);
  EXPECT_EQ(dcs->Count(), 1u);
}

TEST(RssQuantileTest, WorksEndToEnd) {
  DatasetSpec spec;
  spec.n = 20'000;
  spec.log_universe = 16;
  spec.seed = 13;
  const auto data = GenerateDataset(spec);
  const ExactOracle oracle(data);
  RssQuantile rss(256, 5, 16, 3);
  for (uint64_t v : data) rss.Insert(v);
  EXPECT_EQ(rss.Count(), data.size());
  const ErrorStats rss_stats = EvaluateQuantiles(rss, oracle, 0.02);
  EXPECT_LT(rss_stats.max_error, 0.5);
}

TEST(RssQuantileTest, GuaranteeCostDwarfsDcs) {
  // The paper's reason for dropping RSS: for the same eps target its
  // analysis demands width ~1/eps^2 per level vs DCS's sqrt(log u)/eps, so
  // the structure is an order of magnitude larger (and each update pays for
  // the whole width).
  const double eps = 0.01;
  RssQuantile rss(static_cast<uint64_t>(1.0 / (eps * eps)), 5, 24, 1);
  Dcs dcs(eps, 24, 5, 1);
  EXPECT_GT(rss.MemoryBytes(), 10 * dcs.MemoryBytes());
}

TEST(DyadicQuantileTest, OutOfUniverseValuesAreRejected) {
  // Feeding values beyond 2^log_u must not corrupt state (release builds
  // previously risked an out-of-bounds write in the exact-level counters):
  // the update is rejected with kOutOfUniverse and the sketch is unchanged.
  Dcs dcs(0.05, 8, 5, 3);
  EXPECT_EQ(dcs.Insert(1 << 20), StreamqStatus::kOutOfUniverse);
  EXPECT_EQ(dcs.Erase(1 << 20), StreamqStatus::kOutOfUniverse);
  EXPECT_EQ(dcs.Count(), 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(dcs.Insert(200), StreamqStatus::kOk);
  EXPECT_EQ(dcs.Count(), 1000u);
  EXPECT_EQ(dcs.Insert(1 << 20), StreamqStatus::kOutOfUniverse);
  EXPECT_EQ(dcs.Count(), 1000u);  // rejected update did not mutate
  EXPECT_EQ(dcs.Query(0.5), 200u);
}

TEST(DyadicQuantileTest, EmptySketchQueriesSafely) {
  Dcs dcs(0.1, 12);
  EXPECT_EQ(dcs.Count(), 0u);
  EXPECT_LT(dcs.Query(0.5), 1u << 12);
  EXPECT_EQ(dcs.EstimateRank(100), 0);
}

TEST(DyadicQuantileTest, QuantilesMonotoneInPhi) {
  DatasetSpec spec;
  spec.n = 40'000;
  spec.log_universe = 18;
  spec.seed = 41;
  Dcs dcs(0.01, 18, 7, 7);
  for (uint64_t v : GenerateDataset(spec)) dcs.Insert(v);
  uint64_t prev = 0;
  for (double phi = 0.05; phi < 1.0; phi += 0.05) {
    const uint64_t q = dcs.Query(phi);
    EXPECT_GE(q + (1 << 10), prev);  // allow small sketch-noise inversions
    prev = q;
  }
}

}  // namespace
}  // namespace streamq
