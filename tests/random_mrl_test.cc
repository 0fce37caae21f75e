// Tests for the randomized cash-register summaries (Random, MRL99) and the
// shared weighted-sample query machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "exact/error_metrics.h"
#include "exact/exact_oracle.h"
#include "quantile/cash_register.h"
#include "quantile/weighted_sample.h"
#include "sample_summary_codec.h"
#include "stream/generators.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/serde.h"

namespace streamq {
namespace {

// Both views must give these answers: the sorted sample view, and the
// sorted-runs view over the same sample split into runs.
template <typename View>
void ExpectBasicAnswers(const View& view) {
  EXPECT_EQ(view.EstimateRank(10), 0);
  EXPECT_EQ(view.EstimateRank(15), 1);
  EXPECT_EQ(view.EstimateRank(20), 1);
  EXPECT_EQ(view.EstimateRank(25), 5);
  EXPECT_EQ(view.EstimateRank(100), 10);
  EXPECT_EQ(view.Quantile(0.0), 10u);
  EXPECT_EQ(view.Quantile(3.0), 20u);   // rank(20)=1, rank(30)=5: closer to 20? |1-3|=2,|5-3|=2 -> ties to lower
  EXPECT_EQ(view.Quantile(9.9), 40u);
}

TEST(WeightedSampleTest, RankAndQuantileBasics) {
  std::vector<WeightedElement<uint64_t>> sample = {
      {30, 2}, {10, 1}, {20, 4}, {40, 3}};
  WeightedSampleView<uint64_t> view(std::move(sample));
  EXPECT_EQ(view.TotalWeight(), 10);
  ExpectBasicAnswers(view);

  const std::vector<uint64_t> ten = {10}, twenty = {20}, thirty = {30},
                              forty = {40};
  WeightedRunsView<uint64_t> runs;
  runs.Add(forty, 3, /*sorted=*/true);
  runs.Add(thirty, 2, /*sorted=*/false);
  runs.Add(ten, 1, /*sorted=*/true);
  runs.Add(twenty, 4, /*sorted=*/true);
  runs.SortRuns();
  ExpectBasicAnswers(runs);
}

TEST(WeightedSampleTest, DuplicatesShareRank) {
  std::vector<WeightedElement<uint64_t>> sample = {{5, 1}, {5, 1}, {5, 1}};
  WeightedSampleView<uint64_t> view(std::move(sample));
  EXPECT_EQ(view.EstimateRank(5), 0);
  EXPECT_EQ(view.EstimateRank(6), 3);

  const std::vector<uint64_t> two = {5, 5}, one = {5};
  WeightedRunsView<uint64_t> runs;
  runs.Add(two, 1, /*sorted=*/true);
  runs.Add(one, 1, /*sorted=*/false);
  EXPECT_EQ(runs.EstimateRank(5), 0);
  EXPECT_EQ(runs.EstimateRank(6), 3);
}

TEST(RandomSketchTest, ParametersFollowEps) {
  RandomSketch s(0.001);
  // h = ceil(log2(1000)) = 10, s = 1000 * sqrt(10) ~ 3163, b = 11.
  EXPECT_EQ(s.impl().height(), 10);
  EXPECT_NEAR(static_cast<double>(s.impl().buffer_size()), 3163, 5);
}

TEST(RandomSketchTest, ExactBeforeSamplingKicksIn) {
  // While n <= s (single buffer at level 0), the summary stores every
  // element, so small-prefix queries are near-exact.
  RandomSketch s(0.01, 77);
  for (uint64_t i = 0; i < 100; ++i) s.Insert(i);
  EXPECT_EQ(s.Count(), 100u);
  EXPECT_EQ(s.EstimateRank(50), 50);
  EXPECT_EQ(s.Query(0.5), 50u);
}

TEST(RandomSketchTest, SpaceIsConstantInN) {
  RandomSketch s(0.01, 5);
  const size_t before = s.MemoryBytes();
  DatasetSpec spec;
  spec.n = 300'000;
  for (uint64_t v : GenerateDataset(spec)) s.Insert(v);
  EXPECT_EQ(s.MemoryBytes(), before);
}

TEST(RandomSketchTest, TotalWeightTracksN) {
  RandomSketch s(0.02, 9);
  DatasetSpec spec;
  spec.n = 137'111;
  spec.seed = 3;
  for (uint64_t v : GenerateDataset(spec)) s.Insert(v);
  // The weighted snapshot should represent ~n elements (truncation of the
  // in-progress block and stride promotions lose at most a small fraction).
  const int64_t rank_of_max = s.EstimateRank(~0ULL);
  EXPECT_NEAR(static_cast<double>(rank_of_max), 137'111.0, 0.02 * 137'111);
}

TEST(RandomSketchTest, RankEstimatesAreUnbiased) {
  // Average the estimated rank of the true median over many seeds.
  DatasetSpec spec;
  spec.n = 60'000;
  spec.log_universe = 24;
  spec.seed = 31;
  const auto data = GenerateDataset(spec);
  ExactOracle oracle(data);
  const uint64_t median = oracle.Quantile(0.5);
  const double truth = static_cast<double>(oracle.Rank(median));
  double sum = 0;
  const int kReps = 40;
  for (int rep = 0; rep < kReps; ++rep) {
    RandomSketch s(0.01, 1000 + rep);
    for (uint64_t v : data) s.Insert(v);
    sum += static_cast<double>(s.EstimateRank(median));
  }
  EXPECT_NEAR(sum / kReps, truth, 0.005 * spec.n);
}

using RandParam = std::tuple<std::string, double, Order>;
class RandomizedErrorTest : public ::testing::TestWithParam<RandParam> {};

TEST_P(RandomizedErrorTest, ObservedErrorWellBelowEps) {
  const auto& [name, eps, order] = GetParam();
  DatasetSpec spec;
  spec.n = 80'000;
  spec.log_universe = 24;
  spec.order = order;
  spec.seed = 8;
  const auto data = GenerateDataset(spec);
  const ExactOracle oracle(data);

  std::unique_ptr<QuantileSketch> sketch;
  if (name == "Random") sketch = std::make_unique<RandomSketch>(eps, 12345);
  if (name == "MRL99") sketch = std::make_unique<Mrl99>(eps, 12345);
  ASSERT_NE(sketch, nullptr);
  for (uint64_t v : data) sketch->Insert(v);
  const ErrorStats stats = EvaluateQuantiles(*sketch, oracle, eps);
  // The guarantee is probabilistic; the paper observes max errors well below
  // eps. With a fixed seed this is a deterministic regression check.
  EXPECT_LE(stats.max_error, eps) << name;
  EXPECT_LE(stats.avg_error, stats.max_error);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomizedErrorTest,
    ::testing::Combine(::testing::Values("Random", "MRL99"),
                       ::testing::Values(0.05, 0.01, 0.002),
                       ::testing::Values(Order::kRandom, Order::kSorted)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_eps" +
             std::to_string(static_cast<int>(1.0 / std::get<1>(info.param))) +
             (std::get<2>(info.param) == Order::kRandom ? "_random"
                                                        : "_sorted");
    });

TEST(Mrl99Test, CollapsePreservesTotalWeight) {
  Mrl99 s(0.02, 4);
  DatasetSpec spec;
  spec.n = 200'000;
  spec.seed = 2;
  for (uint64_t v : GenerateDataset(spec)) s.Insert(v);
  const int64_t rank_of_max = s.EstimateRank(~0ULL);
  EXPECT_NEAR(static_cast<double>(rank_of_max), 200'000.0, 0.02 * 200'000);
}

TEST(Mrl99Test, SpaceIsConstantInN) {
  Mrl99 s(0.01, 5);
  const size_t before = s.MemoryBytes();
  DatasetSpec spec;
  spec.n = 250'000;
  for (uint64_t v : GenerateDataset(spec)) s.Insert(v);
  EXPECT_EQ(s.MemoryBytes(), before);
}

TEST(Mrl99Test, UsesMoreSpaceThanRandom) {
  // O((1/eps) log^2) vs O((1/eps) log^1.5): MRL99's buffers are larger.
  Mrl99 m(0.001);
  RandomSketch r(0.001);
  EXPECT_GT(m.MemoryBytes(), r.MemoryBytes());
}

TEST(RandomMrlTest, QueryManyMatchesSingleQueries) {
  DatasetSpec spec;
  spec.n = 50'000;
  spec.seed = 77;
  const auto data = GenerateDataset(spec);
  RandomSketch r(0.01, 3);
  Mrl99 m(0.01, 3);
  for (uint64_t v : data) {
    r.Insert(v);
    m.Insert(v);
  }
  std::vector<double> phis = {0.1, 0.25, 0.5, 0.75, 0.9};
  for (QuantileSketch* s : std::vector<QuantileSketch*>{&r, &m}) {
    const auto batch = s->QueryMany(phis);
    for (size_t i = 0; i < phis.size(); ++i) {
      EXPECT_EQ(batch[i], s->Query(phis[i])) << s->Name();
    }
  }
}

TEST(RandomMrlTest, DeterministicGivenSeed) {
  DatasetSpec spec;
  spec.n = 30'000;
  spec.seed = 5;
  const auto data = GenerateDataset(spec);
  RandomSketch a(0.01, 42), b(0.01, 42);
  for (uint64_t v : data) {
    a.Insert(v);
    b.Insert(v);
  }
  for (double phi : {0.1, 0.5, 0.9}) EXPECT_EQ(a.Query(phi), b.Query(phi));
}

TEST(RandomSketchTest, MergeCoversUnion) {
  DatasetSpec spec_a, spec_b;
  spec_a.n = 120'000;
  spec_b.n = 80'000;
  spec_a.log_universe = spec_b.log_universe = 24;
  spec_a.seed = 71;
  spec_b.seed = 72;
  spec_b.distribution = Distribution::kNormal;
  const auto a_data = GenerateDataset(spec_a);
  const auto b_data = GenerateDataset(spec_b);

  const double eps = 0.01;
  RandomSketch a(eps, 5), b(eps, 6);
  for (uint64_t v : a_data) a.Insert(v);
  for (uint64_t v : b_data) b.Insert(v);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 200'000u);

  std::vector<uint64_t> all(a_data);
  all.insert(all.end(), b_data.begin(), b_data.end());
  const ExactOracle oracle(all);
  const ErrorStats stats = EvaluateQuantiles(a, oracle, eps);
  // One merge round adds one level of random-halving noise; 2 eps is a
  // conservative regression bound for this fixed seed.
  EXPECT_LE(stats.max_error, 2 * eps);
  // The summary can keep inserting after a merge.
  for (uint64_t v : a_data) a.Insert(v);
  EXPECT_EQ(a.Count(), 320'000u);
}

TEST(RandomSketchTest, ManyWayMergeStaysAccurate) {
  const double eps = 0.02;
  std::vector<std::unique_ptr<RandomSketch>> sites;
  std::vector<uint64_t> all;
  for (int s = 0; s < 8; ++s) {
    DatasetSpec spec;
    spec.n = 40'000;
    spec.log_universe = 24;
    spec.seed = 300 + s;
    spec.distribution =
        s % 2 ? Distribution::kNormal : Distribution::kUniform;
    auto data = GenerateDataset(spec);
    all.insert(all.end(), data.begin(), data.end());
    auto sk = std::make_unique<RandomSketch>(eps, 500 + s);
    for (uint64_t v : data) sk->Insert(v);
    sites.push_back(std::move(sk));
  }
  while (sites.size() > 1) {
    std::vector<std::unique_ptr<RandomSketch>> next;
    for (size_t i = 0; i + 1 < sites.size(); i += 2) {
      sites[i]->Merge(*sites[i + 1]);
      next.push_back(std::move(sites[i]));
    }
    sites = std::move(next);
  }
  const ExactOracle oracle(all);
  const ErrorStats stats = EvaluateQuantiles(*sites[0], oracle, eps);
  EXPECT_LE(stats.max_error, 3 * eps);
  EXPECT_EQ(sites[0]->Count(), all.size());
}

TEST(RandomMrlTest, GenericElementType) {
  RandomSketchImpl<double> impl(0.02, 7);
  Xoshiro256 rng(1);
  std::vector<double> data;
  for (int i = 0; i < 40'000; ++i) data.push_back(rng.NextDouble());
  for (double v : data) impl.Insert(v);
  const double median = impl.Query(0.5);
  EXPECT_NEAR(median, 0.5, 0.03);
}

// ---------- Sorted-run queries against the sorted-sample reference ----------
//
// Random and MRL99 answer from their buffers as sorted runs
// (WeightedRunsView). The reference is WeightedSampleView over the same
// weighted sample, unsorted, as decoded from the summary's own snapshot.

// What the differential checks covered, so a test can insist that every
// kind of summary state was seen.
struct DiffTally {
  uint64_t checks = 0;
  uint64_t mismatches = 0;
  int empty = 0;         // n = 0
  int one = 0;           // n = 1
  int two = 0;           // n = 2
  int partial = 0;       // a buffer that is not full holds data
  int block = 0;         // the in-progress sampling block has committed
  int merged = 0;        // the summary took part in a Merge
  int deserialized = 0;  // the summary came out of Deserialize

  // Counts one check; true when the caller should report it (the first
  // few mismatches).
  bool Mismatch(bool ok) {
    ++checks;
    return !ok && ++mismatches <= 5;
  }
};

// Rank probes: the type's extremes, and every stored value and its
// neighbours on both sides (sampled when the summary is large).
template <typename T>
std::vector<T> RankProbes(const std::vector<WeightedElement<T>>& sample) {
  std::vector<T> probes = {std::numeric_limits<T>::lowest(),
                           std::numeric_limits<T>::max()};
  const size_t stride = std::max<size_t>(1, sample.size() / 2000);
  for (size_t i = 0; i < sample.size(); i += stride) {
    const T v = sample[i].value;
    probes.push_back(v);
    if constexpr (std::is_integral_v<T>) {
      if (v > std::numeric_limits<T>::lowest()) probes.push_back(v - 1);
      if (v < std::numeric_limits<T>::max()) probes.push_back(v + 1);
    } else {
      probes.push_back(std::nextafter(v, -std::numeric_limits<T>::infinity()));
      probes.push_back(std::nextafter(v, std::numeric_limits<T>::infinity()));
    }
  }
  return probes;
}

// Checks Query, QueryMany and EstimateRank of `impl` (a RandomSketchImpl or
// Mrl99Impl; `weighted` selects the MRL99 snapshot layout) against the
// reference.
template <typename T, typename Impl>
void CheckAgainstSampleView(const Impl& impl, bool weighted, bool merged,
                            bool deserialized, DiffTally* tally) {
  SerdeWriter w;
  impl.Serialize(w);
  SampleSummaryState<T> state;
  ASSERT_TRUE(DecodeSampleSummary(w.Take(), weighted, &state));
  const std::vector<WeightedElement<T>> sample = state.WeightedSample();
  const WeightedSampleView<T> view(sample);

  std::vector<double> phis;
  for (int i = 0; i <= 200; ++i) phis.push_back(i / 200.0);
  std::vector<T> want;
  for (double phi : phis) {
    want.push_back(view.Empty()
                       ? T{}
                       : view.Quantile(phi * static_cast<double>(impl.Count())));
  }
  for (size_t i = 0; i < phis.size(); ++i) {
    if (tally->Mismatch(impl.Query(phis[i]) == want[i])) {
      ADD_FAILURE() << "Query(" << phis[i] << ") at n=" << impl.Count();
    }
  }
  if (tally->Mismatch(impl.QueryMany(phis) == want)) {
    ADD_FAILURE() << "QueryMany at n=" << impl.Count();
  }
  for (const T& v : RankProbes(sample)) {
    if (tally->Mismatch(impl.EstimateRank(v) == view.EstimateRank(v))) {
      ADD_FAILURE() << "EstimateRank(" << v << ") at n=" << impl.Count();
    }
  }

  tally->empty += impl.Count() == 0;
  tally->one += impl.Count() == 1;
  tally->two += impl.Count() == 2;
  tally->partial += std::any_of(
      state.buffers.begin(), state.buffers.end(),
      [](const auto& b) { return b.full == 0 && !b.data.empty(); });
  tally->block += state.fill >= 0 && state.block_seen > state.block_pick;
  tally->merged += merged;
  tally->deserialized += deserialized;
}

// RandomSketchImpl<double> behind the part of the RandomSketch API that
// RunRandomSequences below uses.
class RandomDoubleSketch {
 public:
  RandomDoubleSketch(double eps, uint64_t seed) : impl_(eps, seed) {}
  void Insert(double v) { impl_.Insert(v); }
  void UpdateBatch(std::span<const double> values) {
    impl_.InsertBatch(values.data(), values.size());
  }
  void Merge(const RandomDoubleSketch& other) { impl_.Merge(other.impl_); }
  std::string Serialize() const {
    SerdeWriter w;
    impl_.Serialize(w);
    return w.Take();
  }
  static std::unique_ptr<RandomDoubleSketch> Deserialize(
      const std::string& bytes) {
    auto sketch = std::make_unique<RandomDoubleSketch>(0.5, 0);
    SerdeReader r(bytes);
    if (!sketch->impl_.Deserialize(r) || !r.Done()) return nullptr;
    return sketch;
  }
  RandomSketchImpl<double>& impl() { return impl_; }

 private:
  RandomSketchImpl<double> impl_;
};

template <typename Sketch>
std::unique_ptr<Sketch> CloneOf(const Sketch& sketch) {
  if constexpr (std::is_base_of_v<QuantileSketch, Sketch>) {
    return std::unique_ptr<Sketch>(static_cast<Sketch*>(sketch.Clone().release()));
  } else {
    return std::make_unique<Sketch>(sketch);
  }
}

// range 0 draws from the whole type; a small range makes many duplicates.
template <typename T>
T DrawValue(Xoshiro256& rng, uint64_t range) {
  if constexpr (std::is_same_v<T, double>) {
    return range == 0 ? rng.NextDouble() : static_cast<double>(rng.Below(range));
  } else {
    return range == 0 ? rng.Next() : rng.Below(range);
  }
}

// Seeded random sequences of Insert, UpdateBatch, Merge (both directions),
// Clone and a serde round trip over two summaries. After every step the
// stepped summary must reload from its own snapshot, and its queries must
// match the reference.
template <typename Sketch, typename T>
void RunRandomSequences(bool weighted, DiffTally* tally) {
  constexpr uint64_t kSeeds = 12;
  constexpr int kSteps = 40;
  constexpr uint64_t kRanges[] = {3, 64, 5000, 0};
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Xoshiro256 rng(seed);
    const uint64_t range = kRanges[seed % 4];
    std::unique_ptr<Sketch> s[2] = {std::make_unique<Sketch>(0.05, seed),
                                    std::make_unique<Sketch>(0.05, seed + 99)};
    bool merged[2] = {false, false};
    // n = 0, 1 and 2 first.
    for (int i = 0; i < 3; ++i) {
      CheckAgainstSampleView<T>(s[0]->impl(), weighted, false, false, tally);
      s[0]->Insert(DrawValue<T>(rng, range));
    }
    for (int step = 0; step < kSteps; ++step) {
      const int side = rng.NextBool() ? 1 : 0;
      bool deserialized = false;
      switch (rng.Below(6)) {
        case 0:
          for (uint64_t k = 1 + rng.Below(3); k > 0; --k) {
            s[side]->Insert(DrawValue<T>(rng, range));
          }
          break;
        case 1:
        case 2: {
          std::vector<T> batch(rng.Below(3000));
          for (T& v : batch) v = DrawValue<T>(rng, range);
          s[side]->UpdateBatch(std::span<const T>(batch));
          break;
        }
        case 3:
          s[side]->Merge(*s[1 - side]);
          merged[side] = true;
          break;
        case 4:
          s[side] = CloneOf(*s[side]);
          break;
        default:
          s[side] = Sketch::Deserialize(s[side]->Serialize());
          ASSERT_NE(s[side], nullptr) << "seed " << seed << " step " << step;
          deserialized = true;
          break;
      }
      ASSERT_NE(Sketch::Deserialize(s[side]->Serialize()), nullptr)
          << "seed " << seed << " step " << step;
      CheckAgainstSampleView<T>(s[side]->impl(), weighted, merged[side],
                                deserialized, tally);
    }
  }
}

void ExpectFullCoverage(const DiffTally& tally) {
  ::testing::Test::RecordProperty("checks", std::to_string(tally.checks));
  EXPECT_EQ(tally.mismatches, 0u) << "of " << tally.checks << " checks";
  EXPECT_GT(tally.empty, 0);
  EXPECT_GT(tally.one, 0);
  EXPECT_GT(tally.two, 0);
  EXPECT_GT(tally.partial, 0);
  EXPECT_GT(tally.block, 0);
  EXPECT_GT(tally.merged, 0);
  EXPECT_GT(tally.deserialized, 0);
}

TEST(SortedRunQueryTest, RandomMatchesSortedSampleView) {
  DiffTally tally;
  RunRandomSequences<RandomSketch, uint64_t>(/*weighted=*/false, &tally);
  ExpectFullCoverage(tally);
}

TEST(SortedRunQueryTest, Mrl99MatchesSortedSampleView) {
  DiffTally tally;
  RunRandomSequences<Mrl99, uint64_t>(/*weighted=*/true, &tally);
  ExpectFullCoverage(tally);
}

TEST(SortedRunQueryTest, GenericRandomMatchesSortedSampleView) {
  DiffTally tally;
  RunRandomSequences<RandomDoubleSketch, double>(/*weighted=*/false, &tally);
  ExpectFullCoverage(tally);
}

// The serving size: eps = 1e-3 summaries of a few million values, where
// sampling has reached level > 0, alone and merged.
TEST(SortedRunQueryTest, ServingSizeSummariesMatchSortedSampleView) {
  DiffTally tally;
  DatasetSpec spec;
  spec.n = 2'000'003;
  spec.log_universe = 20;
  spec.seed = 17;
  const auto data = GenerateDataset(spec);
  const std::span<const uint64_t> all(data);
  RandomSketch ra(0.001, 1), rb(0.001, 2);
  Mrl99 ma(0.001, 1), mb(0.001, 2);
  ra.UpdateBatch(all);
  ma.UpdateBatch(all);
  rb.UpdateBatch(all.first(1'500'007));
  mb.UpdateBatch(all.first(1'500'007));
  CheckAgainstSampleView<uint64_t>(ra.impl(), false, false, false, &tally);
  CheckAgainstSampleView<uint64_t>(ma.impl(), true, false, false, &tally);
  ASSERT_EQ(ra.Merge(rb), StreamqStatus::kOk);
  ASSERT_EQ(ma.Merge(mb), StreamqStatus::kOk);
  CheckAgainstSampleView<uint64_t>(ra.impl(), false, true, false, &tally);
  CheckAgainstSampleView<uint64_t>(ma.impl(), true, true, false, &tally);
  ::testing::Test::RecordProperty("checks", std::to_string(tally.checks));
  EXPECT_EQ(tally.mismatches, 0u) << "of " << tally.checks << " checks";
}

// ---------- Merge bytes pinned ----------
//
// CRC32C of the snapshot of a fixed-seed 4-way merge tree, ((a+b)+(c+d)).
// The leaves end mid-buffer and mid-block, so the tree merges partially
// filled buffers and in-progress blocks. The pins were taken before Merge
// stopped re-sorting full buffers; any change to a merged byte fails here.
template <typename Sketch>
uint32_t MergeTreeCrc() {
  std::vector<std::unique_ptr<Sketch>> leaves;
  for (int i = 0; i < 4; ++i) {
    DatasetSpec spec;
    spec.n = 60'000 + 7'919 * static_cast<uint64_t>(i);
    spec.log_universe = 24;
    spec.seed = 40 + static_cast<uint64_t>(i);
    spec.distribution = i % 2 ? Distribution::kNormal : Distribution::kUniform;
    auto sketch = std::make_unique<Sketch>(0.01, 90 + static_cast<uint64_t>(i));
    sketch->UpdateBatch(GenerateDataset(spec));
    leaves.push_back(std::move(sketch));
  }
  EXPECT_EQ(leaves[0]->Merge(*leaves[1]), StreamqStatus::kOk);
  EXPECT_EQ(leaves[2]->Merge(*leaves[3]), StreamqStatus::kOk);
  EXPECT_EQ(leaves[0]->Merge(*leaves[2]), StreamqStatus::kOk);
  const std::string bytes = leaves[0]->Serialize();
  return Crc32c(bytes.data(), bytes.size());
}

TEST(MergeGoldenTest, RandomMergeTreeBytesArePinned) {
  EXPECT_EQ(MergeTreeCrc<RandomSketch>(), 0xabd3fc0au);
}

TEST(MergeGoldenTest, Mrl99MergeTreeBytesArePinned) {
  EXPECT_EQ(MergeTreeCrc<Mrl99>(), 0x79f1fecbu);
}

// ---------- Stream bytes and answers pinned ----------
//
// CRC32C of the snapshot, and of the answers (QueryMany on a 101-point phi
// grid, then EstimateRank at 64 fixed values), after fixed-seed streams.
// The pins were taken before Random and MRL99 shared one buffer tree. A
// stream fed item-wise, in batches, or with a snapshot round trip halfway
// lands on the same pins; a stream of 2 * capacity + 5 values ends with a
// partially filled buffer.

struct StreamPins {
  uint32_t snapshot;
  uint32_t answers;
  bool operator==(const StreamPins&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StreamPins& p) {
  return os << std::hex << "{0x" << p.snapshot << "u, 0x" << p.answers
            << "u}" << std::dec;
}

uint32_t CrcOf(const std::string& bytes) {
  return Crc32c(bytes.data(), bytes.size());
}

// A QuantileSketch adapter or a bare impl (generic T).
template <typename T, typename Sketch>
StreamPins PinsOf(Sketch& sketch) {
  std::string snapshot;
  if constexpr (std::is_base_of_v<QuantileSketch, Sketch>) {
    snapshot = sketch.Serialize();
  } else {
    SerdeWriter w;
    sketch.Serialize(w);
    snapshot = w.Take();
  }
  std::vector<double> phis;
  for (int i = 0; i <= 100; ++i) phis.push_back(i / 100.0);
  SerdeWriter answers;
  for (const T& v : sketch.QueryMany(phis)) answers.Pod(v);
  for (uint64_t k = 0; k < 64; ++k) {
    T probe{};
    if constexpr (std::is_same_v<T, double>) {
      probe = (static_cast<double>(k) + 0.5) / 64.0;
    } else {
      probe = (k << 26) + 12'345;  // across the 32-bit universe
    }
    answers.I64(sketch.EstimateRank(probe));
  }
  return {CrcOf(snapshot), CrcOf(answers.Take())};
}

const std::vector<uint64_t>& PinnedStream() {
  static const std::vector<uint64_t> data = [] {
    DatasetSpec spec;
    spec.n = 4'000'037;
    spec.log_universe = 32;
    spec.seed = 7;
    return GenerateDataset(spec);
  }();
  return data;
}

template <typename Sketch>
void ExpectStreamPins(double eps, StreamPins want, StreamPins want_short) {
  const std::vector<uint64_t>& data = PinnedStream();
  const std::span<const uint64_t> all(data);
  Sketch itemwise(eps, 7), batched(eps, 7), half(eps, 7);
  for (uint64_t v : data) itemwise.Insert(v);
  constexpr size_t kSpans[] = {1, 7, 4'096, 65'537};
  for (size_t i = 0, k = 0; i < data.size(); ++k) {
    const size_t len = std::min(kSpans[k % 4], data.size() - i);
    batched.UpdateBatch(all.subspan(i, len));
    i += len;
  }
  half.UpdateBatch(all.first(data.size() / 2));
  const std::unique_ptr<Sketch> resumed = Sketch::Deserialize(half.Serialize());
  ASSERT_NE(resumed, nullptr);
  resumed->UpdateBatch(all.subspan(data.size() / 2));
  EXPECT_EQ(PinsOf<uint64_t>(itemwise), want) << "item-wise, eps " << eps;
  EXPECT_EQ(PinsOf<uint64_t>(batched), want) << "batched, eps " << eps;
  EXPECT_EQ(PinsOf<uint64_t>(*resumed), want) << "round trip, eps " << eps;

  Sketch partial(eps, 7);
  const size_t n = 2 * partial.impl().buffer_size() + 5;
  for (size_t i = 0; i < n; ++i) partial.Insert(data[i]);
  EXPECT_EQ(PinsOf<uint64_t>(partial), want_short)
      << "2 * capacity + 5, eps " << eps;
}

TEST(StreamGoldenTest, RandomStreamsArePinned) {
  ExpectStreamPins<RandomSketch>(0.1, {0xb18721fcu, 0xa6532782u},
                                 {0x8103b4e7u, 0xfecdcf96u});
  ExpectStreamPins<RandomSketch>(0.01, {0x391817deu, 0x289325d4u},
                                 {0xc90df3f1u, 0x592619f3u});
  ExpectStreamPins<RandomSketch>(0.001, {0xba0d3efeu, 0x645ebbd3u},
                                 {0x556e14e6u, 0xe151ae8bu});
}

TEST(StreamGoldenTest, Mrl99StreamsArePinned) {
  ExpectStreamPins<Mrl99>(0.1, {0xfda362b4u, 0x48233ce1u},
                          {0x6d786ea6u, 0xfecdcf96u});
  ExpectStreamPins<Mrl99>(0.01, {0x2a696919u, 0xf53fa428u},
                          {0x7c0c55fbu, 0x003849cbu});
  ExpectStreamPins<Mrl99>(0.001, {0x8b7b607bu, 0xb7151d1fu},
                          {0x442cff58u, 0x1bc02a1au});
}

// The generic-T path: 200,003 doubles, item-wise and as one batch.
template <typename Impl>
void ExpectGenericPins(StreamPins want) {
  Xoshiro256 rng(7);
  std::vector<double> data(200'003);
  for (double& v : data) v = rng.NextDouble();
  Impl itemwise(0.01, 7), batched(0.01, 7);
  for (double v : data) itemwise.Insert(v);
  batched.InsertBatch(data.data(), data.size());
  EXPECT_EQ(PinsOf<double>(itemwise), want) << "item-wise";
  EXPECT_EQ(PinsOf<double>(batched), want) << "batched";
}

TEST(StreamGoldenTest, GenericPathIsPinned) {
  ExpectGenericPins<RandomSketchImpl<double>>({0x12068880u, 0x3250f27du});
  ExpectGenericPins<Mrl99Impl<double>>({0xc28a2a84u, 0xee3f49e0u});
}

}  // namespace
}  // namespace streamq
