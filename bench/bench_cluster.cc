// bench_cluster: the cluster tier's three deployment numbers (DESIGN.md
// section 13) -- sustained cluster-wide insert throughput vs node count,
// coordinator merge (query) latency vs node count, and recovery latency
// after a node kill.
//
// Not a paper figure: the paper measures single-process summaries. This
// bench backs the cluster subsystem the same way bench_durability backs
// the WAL: it answers what the node/coordinator protocol costs per
// appended update (pipeline push + count-triggered shipping + coordinator
// validation, all inside the virtual-time harness), what a cluster-wide
// quantile costs as nodes are added (one k-way sketch merge into a fresh
// scratch), and how long a killed node takes to come back (checkpoint +
// WAL recovery, then replay + epoch resync).
//
// Channels are perfect here: the fault mix moves convergence time, not
// the per-append protocol cost, and the cluster fault-matrix tests own
// that axis. Storage is in-memory so recovery_ms measures the pipeline's
// scan/replay work, not the host's disk.
//
// Usage: bench_cluster [--json] [OUT.json]
//   --json         write the BENCH_baseline.json "cluster" section (to
//                  OUT.json, default stdout; splice it into the committed
//                  baseline with `scripts/check_bench_json.py
//                  BENCH_baseline.json --splice cluster OUT.json`)
//
// Scale knobs: STREAMQ_SCALE as everywhere (base n = 200,000).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "durability/storage.h"
#include "harness.h"

namespace streamq::bench {
namespace {

constexpr double kEps = 0.01;

struct SweepPoint {
  int nodes = 0;
  double ns_per_append = 0.0;
  double inserts_per_sec = 0.0;
  double merge_latency_us = 0.0;
  size_t coordinator_memory_bytes = 0;
};

struct FailoverPoint {
  int nodes = 0;
  double recovery_ms = 0.0;
  uint64_t replayed_updates = 0;
  double resync_ms = 0.0;
};

cluster::ClusterOptions BenchOptions(
    int nodes, const std::vector<durability::Storage*>& storage) {
  cluster::ClusterOptions options;
  options.nodes = nodes;
  options.node_pipeline.sketch.algorithm = Algorithm::kRandom;
  options.node_pipeline.sketch.eps = kEps;
  options.node_pipeline.sketch.log_universe = 24;
  options.node_pipeline.sketch.seed = 7;
  options.node_pipeline.shards = 2;
  options.seed = 5;
  options.node_storage = storage;
  return options;
}

SweepPoint RunSweepPoint(int nodes, const std::vector<uint64_t>& data) {
  std::vector<std::unique_ptr<durability::MemStorage>> disks;
  std::vector<durability::Storage*> storage;
  for (int i = 0; i < nodes; ++i) {
    disks.push_back(std::make_unique<durability::MemStorage>());
    storage.push_back(disks.back().get());
  }
  auto cluster = cluster::QuantileCluster::Create(BenchOptions(nodes, storage));
  if (cluster == nullptr) {
    std::fprintf(stderr, "bench_cluster: cluster creation failed\n");
    std::exit(1);
  }

  SweepPoint point;
  point.nodes = nodes;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t v : data) cluster->Append(v);
  const auto appended = std::chrono::steady_clock::now();
  if (!cluster->Quiesce()) {
    std::fprintf(stderr, "bench_cluster: %d-node cluster failed to quiesce\n",
                 nodes);
    std::exit(1);
  }
  const double append_ns =
      std::chrono::duration<double, std::nano>(appended - start).count();
  point.ns_per_append = append_ns / static_cast<double>(data.size());
  point.inserts_per_sec = 1e9 * static_cast<double>(data.size()) / append_ns;

  // Merge latency: each query merges the k node sketches into a fresh
  // scratch. One warm-up round, then the fastest of kRounds rounds, so the
  // figure tracks the merge rather than what ran before it.
  constexpr int kRounds = 5;
  constexpr int kQueryReps = 200;
  const auto round_us = [&cluster] {
    const auto q_start = std::chrono::steady_clock::now();
    for (int r = 0; r < kQueryReps; ++r) {
      (void)cluster->Query(0.5 + 0.001 * r);
    }
    const auto q_stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(q_stop - q_start)
               .count() /
           kQueryReps;
  };
  round_us();  // warm-up
  point.merge_latency_us = round_us();
  for (int round = 1; round < kRounds; ++round) {
    point.merge_latency_us = std::min(point.merge_latency_us, round_us());
  }
  point.coordinator_memory_bytes = cluster->coordinator().MemoryBytes();
  return point;
}

FailoverPoint RunFailover(int nodes, const std::vector<uint64_t>& data) {
  std::vector<std::unique_ptr<durability::MemStorage>> disks;
  std::vector<durability::Storage*> storage;
  for (int i = 0; i < nodes; ++i) {
    disks.push_back(std::make_unique<durability::MemStorage>());
    storage.push_back(disks.back().get());
  }
  auto cluster = cluster::QuantileCluster::Create(BenchOptions(nodes, storage));
  if (cluster == nullptr) {
    std::fprintf(stderr, "bench_cluster: cluster creation failed\n");
    std::exit(1);
  }
  // Crash mid-stream so the WAL tail past the last checkpoint is real.
  const uint64_t crash_at = data.size() * 3 / 5;
  for (uint64_t i = 0; i < crash_at; ++i) cluster->Append(data[i]);
  const int victim = nodes - 1;
  cluster->KillNode(victim);

  FailoverPoint point;
  point.nodes = nodes;
  const auto r_start = std::chrono::steady_clock::now();
  if (!cluster->RestartNode(victim)) {
    std::fprintf(stderr, "bench_cluster: node restart failed\n");
    std::exit(1);
  }
  const auto r_stop = std::chrono::steady_clock::now();
  point.recovery_ms =
      std::chrono::duration<double, std::milli>(r_stop - r_start).count();

  const auto s_start = std::chrono::steady_clock::now();
  point.replayed_updates = cluster->ReplayNode(victim);
  if (!cluster->Quiesce()) {
    std::fprintf(stderr, "bench_cluster: post-recovery quiesce failed\n");
    std::exit(1);
  }
  const auto s_stop = std::chrono::steady_clock::now();
  point.resync_ms =
      std::chrono::duration<double, std::milli>(s_stop - s_start).count();

  for (uint64_t i = crash_at; i < data.size(); ++i) cluster->Append(data[i]);
  if (!cluster->Quiesce() || cluster->StalenessBound() != 0) {
    std::fprintf(stderr, "bench_cluster: final convergence failed\n");
    std::exit(1);
  }
  return point;
}

int Main(int argc, char** argv) {
  bool as_json = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      as_json = true;
    } else {
      out_path = argv[i];
    }
  }

  const uint64_t n = ScaledN(200'000);
  DatasetSpec spec;
  spec.distribution = Distribution::kUniform;
  spec.n = n;
  spec.log_universe = 24;
  spec.seed = 42;
  const std::vector<uint64_t> data = GenerateDataset(spec);

  std::vector<SweepPoint> sweep;
  for (const int nodes : {1, 2, 4, 8}) {
    std::fprintf(stderr, "cluster sweep: %d node(s), n=%llu\n", nodes,
                 static_cast<unsigned long long>(n));
    sweep.push_back(RunSweepPoint(nodes, data));
  }
  std::fprintf(stderr, "cluster failover: 4 nodes\n");
  const FailoverPoint failover = RunFailover(4, data);

  if (!as_json) {
    std::printf("cluster ingest (Random eps=%.2g, n=%llu, durable nodes, "
                "perfect channels)\n\n",
                kEps, static_cast<unsigned long long>(n));
    std::printf("%6s %16s %16s %18s %14s\n", "nodes", "ns/append",
                "inserts/sec", "merge latency us", "coord KB");
    for (const SweepPoint& p : sweep) {
      std::printf("%6d %16.1f %16.0f %18.1f %14.1f\n", p.nodes,
                  p.ns_per_append, p.inserts_per_sec, p.merge_latency_us,
                  p.coordinator_memory_bytes / 1024.0);
    }
    std::printf(
        "\nfailover (%d nodes, kill at 60%% of stream): recovery %.2f ms, "
        "%llu updates replayed, resync %.2f ms\n",
        failover.nodes, failover.recovery_ms,
        static_cast<unsigned long long>(failover.replayed_updates),
        failover.resync_ms);
    return 0;
  }

  std::string json = "{\n";
  json += "  \"algorithm\": \"Random\",\n";
  json += "  \"dataset\": \"uniform-random\",\n";
  json += "  \"n\": " + std::to_string(n) + ",\n";
  json += "  \"sweep\": [\n";
  bool first = true;
  for (const SweepPoint& p : sweep) {
    if (!first) json += ",\n";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"nodes\": %d, \"ns_per_append\": %.3f, "
                  "\"inserts_per_sec\": %.1f, \"merge_latency_us\": %.3f, "
                  "\"coordinator_memory_bytes\": %zu}",
                  p.nodes, p.ns_per_append, p.inserts_per_sec,
                  p.merge_latency_us, p.coordinator_memory_bytes);
    json += buf;
  }
  json += "\n  ],\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"failover\": {\"nodes\": %d, \"recovery_ms\": %.3f, "
                "\"replayed_updates\": %llu, \"resync_ms\": %.3f}\n",
                failover.nodes, failover.recovery_ms,
                static_cast<unsigned long long>(failover.replayed_updates),
                failover.resync_ms);
  json += buf;
  json += "}\n";

  if (out_path == nullptr) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_cluster: cannot open %s\n", out_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "bench_cluster: wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace streamq::bench

int main(int argc, char** argv) { return streamq::bench::Main(argc, argv); }
