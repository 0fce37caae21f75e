// bench_baseline: machine-readable performance/accuracy baseline over every
// algorithm of Table 1 (plus DCS+Post), on a small grid of dataset types.
//
// Unlike the per-figure binaries (human-readable tables for one figure
// each), this one emits a single JSON file consumed by
// scripts/check_bench_json.py, which checks it against its gate table and
// flags ns/update regressions beyond 20% against the committed
// BENCH_baseline.json.
//
// Usage: bench_baseline [output.json]     (default: BENCH_baseline.json)
// Scale knobs: STREAMQ_SCALE / STREAMQ_REPS as in every other bench binary.
// RSS is ~4 orders of magnitude slower per update than the rest (its
// update touches every counter of every dyadic level, ~8 ms each at the
// factory's default width cap); it runs on a shorter prefix so the whole
// baseline stays in laptop territory.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "durability/storage.h"
#include "harness.h"
#include "obs/metrics.h"

namespace streamq::bench {
namespace {

struct DatasetCase {
  const char* tag;  // stable id used in the JSON and the checker
  DatasetSpec spec;
};

std::vector<DatasetCase> BaselineDatasets(uint64_t n) {
  DatasetCase uniform{"uniform-random", {}};
  uniform.spec.distribution = Distribution::kUniform;
  uniform.spec.n = n;
  uniform.spec.log_universe = 29;
  uniform.spec.order = Order::kRandom;

  DatasetCase normal{"normal-random", {}};
  normal.spec.distribution = Distribution::kNormal;
  normal.spec.n = n;
  normal.spec.log_universe = 29;
  normal.spec.sigma = 0.15;
  normal.spec.order = Order::kRandom;

  DatasetCase sorted{"uniform-sorted", {}};
  sorted.spec.distribution = Distribution::kUniform;
  sorted.spec.n = n;
  sorted.spec.log_universe = 29;
  sorted.spec.order = Order::kSorted;

  DatasetCase skewed{"loguniform-random", {}};
  skewed.spec.distribution = Distribution::kLogUniform;
  skewed.spec.n = n;
  skewed.spec.log_universe = 29;
  skewed.spec.order = Order::kRandom;

  return {uniform, normal, sorted, skewed};
}

// JSON-escapes nothing because every string we emit is a [A-Za-z0-9_.+-]
// tag; kept as a function so a future fancy tag fails loudly here.
std::string JsonString(const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(stderr, "tag not JSON-safe: %s\n", s.c_str());
      std::exit(1);
    }
  }
  return "\"" + s + "\"";
}

int Main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_baseline.json";

  const uint64_t n = ScaledN(500'000);
  // RSS updates every counter of every dyadic level per insert -- ~8 ms
  // each. A shorter prefix keeps its run honest but bounded.
  const uint64_t rss_n = std::min<uint64_t>(n, ScaledN(20'000));
  const int reps = Repetitions();
  const double eps = 0.01;

  std::string json;
  json += "{\n";
  json += "  \"schema_version\": 10,\n";
  json += "  \"eps\": 0.01,\n";
  json += "  \"n\": " + std::to_string(n) + ",\n";
  json += "  \"rss_n\": " + std::to_string(rss_n) + ",\n";
  json += "  \"entries\": [\n";

  bool first = true;
  for (const DatasetCase& dataset : BaselineDatasets(n)) {
    std::fprintf(stderr, "dataset %s (n=%" PRIu64 ")\n", dataset.tag,
                 dataset.spec.n);
    const std::vector<uint64_t> data = GenerateDataset(dataset.spec);
    const ExactOracle oracle(data);

    // RSS prefix workload, with its own oracle.
    DatasetSpec rss_spec = dataset.spec;
    rss_spec.n = rss_n;
    const std::vector<uint64_t> rss_data = GenerateDataset(rss_spec);
    const ExactOracle rss_oracle(rss_data);

    for (Algorithm algorithm :
         {Algorithm::kGkTheory, Algorithm::kGkAdaptive, Algorithm::kGkArray,
          Algorithm::kFastQDigest, Algorithm::kMrl99, Algorithm::kRandom,
          Algorithm::kRss, Algorithm::kDcm, Algorithm::kDcs,
          Algorithm::kDcsPost}) {
      SketchConfig config;
      config.algorithm = algorithm;
      config.eps = eps;
      config.log_universe = dataset.spec.LogUniverse();

      const bool is_rss = algorithm == Algorithm::kRss;
      const RunResult r =
          RunCashRegister(config, is_rss ? rss_data : data,
                          is_rss ? rss_oracle : oracle, reps);
      std::fprintf(stderr,
                   "  %-10s %10.1f ns/update  %10.1f ns/update(batch)  "
                   "%9zu B  maxerr %.5f\n",
                   r.algorithm.c_str(), r.ns_per_update, r.ns_per_update_batch,
                   r.max_memory_bytes, r.max_error);

      if (!first) json += ",\n";
      first = false;
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "    {\"dataset\": %s, \"algorithm\": %s, "
                    "\"ns_per_update\": %.3f, \"ns_per_update_batch\": %.3f, "
                    "\"max_memory_bytes\": %zu, "
                    "\"max_rank_error\": %.6f, \"avg_rank_error\": %.6f}",
                    JsonString(dataset.tag).c_str(),
                    JsonString(r.algorithm).c_str(), r.ns_per_update,
                    r.ns_per_update_batch, r.max_memory_bytes, r.max_error,
                    r.avg_error);
      json += buf;
    }
  }
  json += "\n  ],\n";

  // Parallel-ingest sweep: the sharded pipeline over the uniform dataset
  // with the Random summary, 1..8 shard workers. The checker validates
  // schema and merged accuracy but deliberately runs no ns/update
  // regression gate on this section -- thread-scheduling noise dwarfs the
  // 20% budget, especially on small hosts.
  {
    DatasetSpec spec = BaselineDatasets(n)[0].spec;  // uniform-random
    const std::vector<uint64_t> data = GenerateDataset(spec);
    const ExactOracle oracle(data);
    SketchConfig config;
    config.algorithm = Algorithm::kRandom;
    config.eps = eps;
    config.log_universe = spec.LogUniverse();

    json += "  \"parallel_ingest\": {\n";
    json += "    \"algorithm\": " + JsonString("Random") + ",\n";
    json += "    \"dataset\": " + JsonString("uniform-random") + ",\n";
    json += "    \"n\": " + std::to_string(n) + ",\n";
    json += "    \"sweep\": [\n";
    bool first_sweep = true;
    for (int threads : {1, 2, 4, 8}) {
      const ParallelIngestResult r =
          RunParallelIngest(config, data, oracle, threads);
      std::fprintf(stderr,
                   "  ingest %d thread(s) %10.1f ns/update  %9zu B  "
                   "maxerr %.5f\n",
                   threads, r.ns_per_update, r.peak_memory_bytes, r.max_error);
      if (!first_sweep) json += ",\n";
      first_sweep = false;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "      {\"threads\": %d, \"ns_per_update\": %.3f, "
                    "\"updates_per_sec\": %.1f, "
                    "\"merged_max_rank_error\": %.6f, "
                    "\"peak_memory_bytes\": %zu}",
                    r.threads, r.ns_per_update, r.updates_per_sec,
                    r.max_error, r.peak_memory_bytes);
      json += buf;
    }
    json += "\n    ]\n  },\n";
  }

  // Durability section: the WAL's hot-path cost and recovery latency, both
  // on in-memory storage so the numbers measure the pipeline's
  // framing/CRC/buffering work, not the host's disk. The checker validates
  // structure and sanity only -- like the ingest sweep, wall-clock here is
  // thread-timing dependent.
  {
    DatasetSpec spec = BaselineDatasets(n)[0].spec;  // uniform-random
    const std::vector<uint64_t> data = GenerateDataset(spec);
    SketchConfig config;
    config.algorithm = Algorithm::kRandom;
    config.eps = eps;
    config.log_universe = spec.LogUniverse();

    json += "  \"durability\": {\n";
    json += "    \"algorithm\": " + JsonString("Random") + ",\n";
    json += "    \"dataset\": " + JsonString("uniform-random") + ",\n";
    json += "    \"n\": " + std::to_string(n) + ",\n";
    json += "    \"modes\": [\n";
    durability::MemStorage storage;
    bool first_mode = true;
    for (const bool wal_on : {false, true}) {
      ingest::IngestOptions options;
      options.sketch = config;
      options.shards = 4;
      if (wal_on) {
        options.durability.enabled = true;
        options.durability.storage = &storage;
        options.durability.dir = "baseline";
      }
      uint64_t wal_bytes = 0;
      uint64_t wal_syncs = 0;
      uint64_t checkpoints = 0;
      double ns_per_update = 0.0;
      {
        auto pipeline = ingest::IngestPipeline::Create(options);
        if (pipeline == nullptr) {
          std::fprintf(stderr, "durability baseline: Create failed\n");
          return 1;
        }
        const auto start = std::chrono::steady_clock::now();
        for (uint64_t v : data) pipeline->Push(Update{v, +1});
        pipeline->Flush();
        const auto stop = std::chrono::steady_clock::now();
        ns_per_update =
            std::chrono::duration<double, std::nano>(stop - start).count() /
            static_cast<double>(data.size());
        pipeline->Stop();
        if (wal_on) {
          obs::MetricsRegistry registry;
          pipeline->PublishMetrics(registry, "ingest");
          for (int s = 0; s < pipeline->shard_count(); ++s) {
            const std::string p = "ingest.shard" + std::to_string(s);
            if (const obs::Counter* c = registry.FindCounter(p + ".wal_bytes"))
              wal_bytes += c->value();
            if (const obs::Counter* c = registry.FindCounter(p + ".wal_syncs"))
              wal_syncs += c->value();
          }
          checkpoints = pipeline->stats().checkpoints.load();
        }
      }
      double recovery_ms = 0.0;
      uint64_t replayed = 0;
      if (wal_on) {
        const auto start = std::chrono::steady_clock::now();
        auto recovered = ingest::IngestPipeline::Create(options);
        const auto stop = std::chrono::steady_clock::now();
        if (recovered == nullptr) {
          std::fprintf(stderr, "durability baseline: recovery failed\n");
          return 1;
        }
        recovery_ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        replayed = recovered->recovery().replayed_updates;
        recovered->Stop();
      }
      std::fprintf(stderr,
                   "  durability %-7s %10.1f ns/update  wal %" PRIu64
                   " B  recovery %.1f ms\n",
                   wal_on ? "wal_on" : "wal_off", ns_per_update, wal_bytes,
                   recovery_ms);
      if (!first_mode) json += ",\n";
      first_mode = false;
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "      {\"mode\": %s, \"ns_per_update\": %.3f, "
                    "\"wal_bytes\": %" PRIu64 ", \"wal_syncs\": %" PRIu64
                    ", \"checkpoints\": %" PRIu64
                    ", \"recovery_ms\": %.3f, \"replayed_updates\": %" PRIu64
                    "}",
                    JsonString(wal_on ? "wal_mem" : "wal_off").c_str(),
                    ns_per_update, wal_bytes, wal_syncs, checkpoints,
                    recovery_ms, replayed);
      json += buf;
    }
    json += "\n    ]\n  },\n";
  }

  // Five sections come from benches of their own and are always null here:
  // the idle and recording tracer lanes (bench_trace_overhead), the
  // node-count sweep with failover (bench_cluster), the client-count sweep
  // over TCP loopback (bench_net), the chaos lanes (bench_net_resilience)
  // and the audited vs unaudited lanes (bench_audit). Fill one with
  //   <bench> --json OUT.json
  //   scripts/check_bench_json.py BENCH_baseline.json --splice <name> OUT.json
  // which writes the section only if it passes the checker's gate table.
  json += "  \"trace_overhead\": null,\n";
  json += "  \"cluster\": null,\n";
  json += "  \"net\": null,\n";
  json += "  \"net_resilience\": null,\n";
  json += "  \"audit\": null\n";
  json += "}\n";

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace streamq::bench

int main(int argc, char** argv) { return streamq::bench::Main(argc, argv); }
