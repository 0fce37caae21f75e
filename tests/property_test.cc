// Cross-cutting property tests: structural invariants checked against
// brute-force reference implementations on randomized inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "exact/error_metrics.h"
#include "exact/exact_oracle.h"
#include "quantile/factory.h"
#include "quantile/fast_qdigest.h"
#include "quantile/gk_tuple_store.h"
#include "quantile/weighted_sample.h"
#include "stream/generators.h"
#include "util/random.h"

namespace streamq {
namespace {

// ---------- WeightedSampleView vs brute force ----------

class WeightedSamplePropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(WeightedSamplePropertyTest, MatchesBruteForce) {
  Xoshiro256 rng(GetParam());
  std::vector<WeightedElement<uint64_t>> sample;
  const int n = 1 + static_cast<int>(rng.Below(200));
  for (int i = 0; i < n; ++i) {
    sample.push_back({rng.Below(50), 1 + static_cast<int64_t>(rng.Below(9))});
  }
  // Brute force: expand to a weighted multiset.
  std::vector<uint64_t> expanded;
  for (const auto& e : sample) {
    for (int64_t j = 0; j < e.weight; ++j) expanded.push_back(e.value);
  }
  std::sort(expanded.begin(), expanded.end());

  WeightedSampleView<uint64_t> view(sample);
  EXPECT_EQ(view.TotalWeight(), static_cast<int64_t>(expanded.size()));
  for (uint64_t probe = 0; probe <= 50; probe += 5) {
    const auto expected = std::lower_bound(expanded.begin(), expanded.end(),
                                           probe) -
                          expanded.begin();
    EXPECT_EQ(view.EstimateRank(probe), expected) << "probe " << probe;
  }
  // Quantile answers must be stored values whose rank distance to the
  // target is minimal among stored values.
  for (double frac : {0.0, 0.3, 0.5, 0.9, 1.0}) {
    const double target = frac * static_cast<double>(expanded.size());
    const uint64_t q = view.Quantile(target);
    const double q_dist = std::abs(
        static_cast<double>(view.EstimateRank(q)) - target);
    for (const auto& e : sample) {
      const double other = std::abs(
          static_cast<double>(view.EstimateRank(e.value)) - target);
      EXPECT_LE(q_dist, other + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedSamplePropertyTest,
                         ::testing::Range<uint64_t>(1, 16));

// ---------- GkTupleStore structural unit tests ----------

TEST(GkTupleStoreTest, SuccessorAndInsertOrder) {
  GkTupleStore<uint64_t> store;
  auto end = store.Successor(10);
  EXPECT_EQ(end, store.End());
  store.InsertBefore(end, 10, 1, 0);
  store.InsertBefore(store.Successor(30), 30, 1, 0);
  store.InsertBefore(store.Successor(20), 20, 1, 0);
  std::vector<uint64_t> values;
  for (auto it = store.Begin(); it != store.End(); ++it) {
    values.push_back(it->v);
  }
  EXPECT_EQ(values, (std::vector<uint64_t>{10, 20, 30}));
}

TEST(GkTupleStoreTest, EqualValuesKeepInsertionOrder) {
  GkTupleStore<uint64_t> store;
  // Three equal values inserted one at a time: each lands after the
  // previous ones (the monotone sequence stamp), matching the semantics of
  // "insert before the strict successor".
  for (int i = 0; i < 3; ++i) {
    store.InsertBefore(store.Successor(7), 7, 1, static_cast<int64_t>(i));
  }
  std::vector<int64_t> deltas;
  for (auto it = store.Begin(); it != store.End(); ++it) {
    deltas.push_back(store.NodeOf(it->id).delta);
  }
  EXPECT_EQ(deltas, (std::vector<int64_t>{0, 1, 2}));
}

TEST(GkTupleStoreTest, RemoveFoldsMassIntoSuccessor) {
  GkTupleStore<uint64_t> store;
  store.InsertBefore(store.Successor(1), 1, 2, 0);
  store.InsertBefore(store.Successor(2), 2, 3, 0);
  store.InsertBefore(store.Successor(3), 3, 4, 0);
  auto it = store.Begin();
  store.RemoveIntoSuccessor(it);
  EXPECT_EQ(store.Size(), 2u);
  auto first = store.Begin();
  EXPECT_EQ(first->v, 2u);
  EXPECT_EQ(store.NodeOf(first->id).g, 5);  // 2 + 3
}

TEST(GkTupleStoreTest, SlotReuseKeepsOrdering) {
  GkTupleStore<uint64_t> store;
  // Fill, remove, re-insert equal values many times: order must stay
  // consistent (regression for the recycled-id tie-break bug).
  Xoshiro256 rng(9);
  for (int round = 0; round < 500; ++round) {
    const uint64_t v = rng.Below(8);
    store.InsertBefore(store.Successor(v), v, 1, 0);
    if (store.Size() > 4) {
      store.RemoveIntoSuccessor(store.Begin());
    }
    uint64_t prev = 0;
    bool first = true;
    int64_t total = 0;
    for (auto it = store.Begin(); it != store.End(); ++it) {
      if (!first) {
        EXPECT_LE(prev, it->v);
      }
      prev = it->v;
      first = false;
      total += store.NodeOf(it->id).g;
    }
    EXPECT_EQ(total, static_cast<int64_t>(round + 1));
  }
}

// ---------- q-digest structural invariant ----------

TEST(QDigestPropertyTest, NodeCountsSumToN) {
  FastQDigest digest(0.02, 16);
  Xoshiro256 rng(3);
  const int n = 50'000;
  std::map<uint64_t, int64_t> truth;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = rng.Below(1 << 16);
    digest.Insert(v);
    ++truth[v];
  }
  digest.Compress();
  // Total mass is preserved exactly by compression.
  EXPECT_EQ(digest.EstimateRank(1 << 16), n);
  // And ranks of random probes stay within the eps guarantee.
  std::vector<uint64_t> sorted;
  for (auto& [v, c] : truth) {
    for (int64_t j = 0; j < c; ++j) sorted.push_back(v);
  }
  for (int probe = 0; probe < 20; ++probe) {
    const uint64_t x = rng.Below(1 << 16);
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), x) -
                    sorted.begin();
    EXPECT_NEAR(static_cast<double>(digest.EstimateRank(x)),
                static_cast<double>(lo), 0.02 * n + 1);
  }
}

// ---------- mergeable-summary property ----------

// The property the parallel ingest subsystem rests on: split a stream into
// k shards uniformly at random, summarise each shard independently, merge
// the shard summaries, and the merged summary answers every phi within the
// same eps*n bound as a single-stream summary would.
class ShardedMergePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardedMergePropertyTest, RandomShardingPreservesErrorBound) {
  const uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  const double eps = 0.02;
  const int k = 2 + static_cast<int>(rng.Below(4));  // 2..5 shards

  DatasetSpec spec;
  spec.distribution =
      (seed % 2 == 0) ? Distribution::kUniform : Distribution::kLogUniform;
  spec.n = 40'000;
  spec.log_universe = 20;
  spec.seed = seed * 31 + 7;
  const std::vector<uint64_t> data = GenerateDataset(spec);
  const ExactOracle oracle(data);

  for (Algorithm algorithm :
       {Algorithm::kRandom, Algorithm::kFastQDigest, Algorithm::kDcs}) {
    SketchConfig config;
    config.algorithm = algorithm;
    config.eps = eps;
    config.log_universe = 20;
    config.seed = seed + 1;

    std::vector<std::unique_ptr<QuantileSketch>> shards;
    for (int i = 0; i < k; ++i) shards.push_back(MakeSketch(config));
    for (uint64_t v : data) {
      ASSERT_EQ(shards[rng.Below(static_cast<uint64_t>(k))]->Insert(v),
                StreamqStatus::kOk);
    }

    auto merged = MakeSketch(config);
    for (const auto& shard : shards) {
      ASSERT_EQ(merged->Merge(*shard), StreamqStatus::kOk);
    }
    ASSERT_EQ(merged->Count(), data.size());

    const ErrorStats stats = EvaluateQuantiles(*merged, oracle, eps);
    const double slack = algorithm == Algorithm::kFastQDigest ? 1.0 : 3.0;
    EXPECT_LE(stats.max_error, slack * eps)
        << merged->Name() << " with k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedMergePropertyTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace streamq
