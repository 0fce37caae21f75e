// google-benchmark micro-benchmarks: per-update and per-query costs of every
// algorithm, complementing the per-figure harnesses with statistically
// stabilised numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "quantile/factory.h"
#include "stream/generators.h"

namespace streamq {
namespace {

const std::vector<uint64_t>& Data() {
  static const auto* data = [] {
    DatasetSpec spec;
    spec.distribution = Distribution::kUniform;
    spec.log_universe = 24;
    spec.n = 1 << 18;
    spec.seed = 5;
    return new std::vector<uint64_t>(GenerateDataset(spec));
  }();
  return *data;
}

SketchConfig Config(Algorithm algorithm, double eps) {
  SketchConfig config;
  config.algorithm = algorithm;
  config.eps = eps;
  config.log_universe = 24;
  config.rss_width_cap = 1 << 10;
  return config;
}

void BM_Update(benchmark::State& state) {
  const auto algorithm = static_cast<Algorithm>(state.range(0));
  const double eps = 1.0 / static_cast<double>(state.range(1));
  const auto& data = Data();
  auto sketch = MakeSketch(Config(algorithm, eps));
  size_t i = 0;
  for (auto _ : state) {
    sketch->Insert(data[i]);
    if (++i == data.size()) i = 0;
  }
  state.SetLabel(AlgorithmName(algorithm));
  state.SetItemsProcessed(state.iterations());
}

// Batched counterpart of BM_Update: whole spans through UpdateBatch, so the
// per-item figure shows what the amortisation (one dispatch + one metrics
// tick per span, SIMD interiors) buys over the item-wise NVI entry.
void BM_UpdateBatch(benchmark::State& state) {
  const auto algorithm = static_cast<Algorithm>(state.range(0));
  const double eps = 1.0 / static_cast<double>(state.range(1));
  const size_t span = static_cast<size_t>(state.range(2));
  const auto& data = Data();
  auto sketch = MakeSketch(Config(algorithm, eps));
  size_t off = 0;
  uint64_t items = 0;
  for (auto _ : state) {
    const size_t len = std::min(span, data.size() - off);
    sketch->UpdateBatch(std::span<const uint64_t>(data.data() + off, len));
    items += len;
    off += len;
    if (off == data.size()) off = 0;
  }
  state.SetLabel(AlgorithmName(algorithm));
  state.SetItemsProcessed(static_cast<int64_t>(items));
}

void BM_Query(benchmark::State& state) {
  const auto algorithm = static_cast<Algorithm>(state.range(0));
  const double eps = 1.0 / static_cast<double>(state.range(1));
  const auto& data = Data();
  auto sketch = MakeSketch(Config(algorithm, eps));
  for (uint64_t v : data) sketch->Insert(v);
  double phi = 0.0;
  for (auto _ : state) {
    phi += 0.37;
    if (phi >= 1.0) phi -= 1.0;
    if (phi <= 0.0) phi = 0.5;
    benchmark::DoNotOptimize(sketch->Query(phi));
  }
  state.SetLabel(AlgorithmName(algorithm));
}

void BM_Rank(benchmark::State& state) {
  const auto algorithm = static_cast<Algorithm>(state.range(0));
  const double eps = 1.0 / static_cast<double>(state.range(1));
  const auto& data = Data();
  auto sketch = MakeSketch(Config(algorithm, eps));
  for (uint64_t v : data) sketch->Insert(v);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch->EstimateRank(data[i]));
    if (++i == data.size()) i = 0;
  }
  state.SetLabel(AlgorithmName(algorithm));
}

// Two shard sketches of kShardValues values each, built once per algorithm
// and process: what IngestPipeline's publish merges after a 2-shard
// pipeline has taken 2 * kShardValues values.
constexpr size_t kShardValues = 5'000'000;

const std::vector<std::unique_ptr<QuantileSketch>>& Shards(Algorithm algorithm,
                                                           double eps) {
  static std::map<Algorithm, std::vector<std::unique_ptr<QuantileSketch>>>
      cache;
  auto& shards = cache[algorithm];
  if (shards.empty()) {
    const auto& data = Data();
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      SketchConfig config = Config(algorithm, eps);
      config.seed = seed;
      auto sketch = MakeSketch(config);
      // Each shard cycles through the data from its own offset.
      size_t off = seed * data.size() / 3;
      for (size_t done = 0; done < kShardValues;) {
        const size_t len =
            std::min({size_t{4096}, data.size() - off, kShardValues - done});
        sketch->UpdateBatch(std::span<const uint64_t>(data.data() + off, len));
        done += len;
        off += len;
        if (off == data.size()) off = 0;
      }
      shards.push_back(std::move(sketch));
    }
  }
  return shards;
}

// One view publish: a fresh sketch merging the two shard sketches, as
// IngestPipeline::PublishMergedView does with the shards' snapshot clones.
void BM_PublishMerge(benchmark::State& state) {
  const auto algorithm = static_cast<Algorithm>(state.range(0));
  const double eps = 1.0 / static_cast<double>(state.range(1));
  const auto& shards = Shards(algorithm, eps);
  for (auto _ : state) {
    auto merged = MakeSketch(Config(algorithm, eps));
    for (const auto& shard : shards) merged->Merge(*shard);
    benchmark::DoNotOptimize(merged.get());
    benchmark::ClobberMemory();
  }
  state.SetLabel(AlgorithmName(algorithm));
}

void RegisterAll() {
  for (Algorithm a :
       {Algorithm::kGkTheory, Algorithm::kGkAdaptive, Algorithm::kGkArray,
        Algorithm::kFastQDigest, Algorithm::kMrl99, Algorithm::kRandom,
        Algorithm::kDcm, Algorithm::kDcs, Algorithm::kDcsPost}) {
    for (int inv_eps : {100, 1000}) {
      benchmark::RegisterBenchmark(
          ("BM_Update/" + AlgorithmName(a) + "/eps_1e-" +
           std::to_string(inv_eps == 100 ? 2 : 3))
              .c_str(),
          BM_Update)
          ->Args({static_cast<int>(a), inv_eps});
    }
    for (int span : {256, 4096}) {
      benchmark::RegisterBenchmark(
          ("BM_UpdateBatch/" + AlgorithmName(a) + "/span_" +
           std::to_string(span))
              .c_str(),
          BM_UpdateBatch)
          ->Args({static_cast<int>(a), 1000, span});
    }
    benchmark::RegisterBenchmark(
        ("BM_Query/" + AlgorithmName(a)).c_str(), BM_Query)
        ->Args({static_cast<int>(a), 1000});
  }
  // The layers a server's reads and view publishes run through, for the
  // algorithms the ingest pipeline serves.
  for (Algorithm a : {Algorithm::kRandom, Algorithm::kMrl99,
                      Algorithm::kFastQDigest, Algorithm::kDcm,
                      Algorithm::kDcs}) {
    benchmark::RegisterBenchmark(("BM_Rank/" + AlgorithmName(a)).c_str(),
                                 BM_Rank)
        ->Args({static_cast<int>(a), 1000});
    benchmark::RegisterBenchmark(
        ("BM_PublishMerge/" + AlgorithmName(a)).c_str(), BM_PublishMerge)
        ->Args({static_cast<int>(a), 1000})
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace streamq

int main(int argc, char** argv) {
  streamq::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
