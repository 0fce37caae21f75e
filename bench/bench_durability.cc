// bench_durability: the price of crash safety on the ingest hot path
// (DESIGN.md section 11).
//
// Not a paper figure: the paper's algorithms are measured in-memory. This
// bench backs the durable-ingest subsystem by answering the deployment
// question the design doc raises -- what does the WAL cost per update, and
// how long does recovery take?  It pushes the same stream through the
// sharded pipeline with durability off, with the WAL on in-memory storage
// (isolates framing/CRC/copy cost from the filesystem), and with the WAL
// on the real filesystem at two fsync cadences. A second section times
// Create()-with-recovery over the state each durable run left behind.
//
// Scale knobs: STREAMQ_SCALE as everywhere (base n = 1,000,000).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "durability/storage.h"
#include "harness.h"

namespace streamq::bench {
namespace {

struct DurabilityRun {
  double ns_per_update = 0.0;
  double recovery_ms = 0.0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  uint64_t checkpoints = 0;
  uint64_t replayed_updates = 0;
};

ingest::IngestOptions BaseOptions(const SketchConfig& config) {
  ingest::IngestOptions options;
  options.sketch = config;
  options.shards = 4;
  return options;
}

uint64_t SumWal(const ingest::IngestPipeline& pipeline,
                const obs::MetricsRegistry& registry, const char* what) {
  uint64_t total = 0;
  for (int s = 0; s < pipeline.shard_count(); ++s) {
    const obs::Counter* c = registry.FindCounter(
        "ingest.shard" + std::to_string(s) + ".wal_" + what);
    if (c != nullptr) total += c->value();
  }
  return total;
}

DurabilityRun RunOnce(const SketchConfig& config,
                      const std::vector<uint64_t>& data,
                      durability::Storage* storage, const std::string& dir,
                      uint64_t sync_interval) {
  DurabilityRun result;
  {
    ingest::IngestOptions options = BaseOptions(config);
    if (storage != nullptr) {
      options.durability.enabled = true;
      options.durability.storage = storage;
      options.durability.dir = dir;
      options.durability.sync_interval = sync_interval;
    }
    auto pipeline = ingest::IngestPipeline::Create(options);
    if (pipeline == nullptr) {
      std::fprintf(stderr, "bench_durability: pipeline creation failed\n");
      std::exit(1);
    }
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t v : data) pipeline->Push(Update{v, +1});
    pipeline->Flush();
    const auto stop = std::chrono::steady_clock::now();
    result.ns_per_update =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(data.size());
    pipeline->Stop();
    if (storage != nullptr) {
      obs::MetricsRegistry registry;
      pipeline->PublishMetrics(registry, "ingest");
      result.wal_bytes = SumWal(*pipeline, registry, "bytes");
      result.wal_syncs = SumWal(*pipeline, registry, "syncs");
      result.checkpoints = pipeline->stats().checkpoints.load();
    }
  }
  if (storage != nullptr) {
    // Recovery cost: a fresh incarnation over what the run left behind
    // (newest checkpoint + WAL tail).
    ingest::IngestOptions options = BaseOptions(config);
    options.durability.enabled = true;
    options.durability.storage = storage;
    options.durability.dir = dir;
    const auto start = std::chrono::steady_clock::now();
    auto recovered = ingest::IngestPipeline::Create(options);
    const auto stop = std::chrono::steady_clock::now();
    if (recovered == nullptr) {
      std::fprintf(stderr, "bench_durability: recovery failed\n");
      std::exit(1);
    }
    result.recovery_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    result.replayed_updates = recovered->recovery().replayed_updates;
    recovered->Stop();
  }
  return result;
}

void CleanDir(durability::Storage& storage, const std::string& dir) {
  for (const char* sub : {"/wal", "/ckpt"}) {
    for (const std::string& name : storage.List(dir + sub)) {
      storage.Delete(dir + sub + "/" + name);
    }
  }
}

int Main() {
  const uint64_t n = ScaledN(1'000'000);
  const double eps = 0.01;
  std::printf("durable ingest cost: n=%llu eps=%.2g shards=4\n",
              static_cast<unsigned long long>(n), eps);

  DatasetSpec spec;
  spec.distribution = Distribution::kUniform;
  spec.n = n;
  spec.log_universe = 29;
  spec.order = Order::kRandom;
  const std::vector<uint64_t> data = GenerateDataset(spec);

  SketchConfig config;
  config.algorithm = Algorithm::kRandom;
  config.eps = eps;
  config.log_universe = spec.LogUniverse();

  const std::string posix_dir =
      (std::filesystem::temp_directory_path() / "streamq_bench_durability")
          .string();

  PrintHeader("Random / " + spec.Name(),
              {"mode", "ns/upd", "overhead", "wal MB", "fsyncs", "ckpts",
               "recover ms", "replayed"});

  const DurabilityRun off = RunOnce(config, data, nullptr, "", 0);
  PrintRow({"wal off", FmtTime(off.ns_per_update), "1.00x", "-", "-", "-",
            "-", "-"});

  struct Mode {
    const char* name;
    bool posix;
    uint64_t sync_interval;
  };
  for (const Mode& mode :
       {Mode{"wal mem  fsync/4096", false, 4096},
        Mode{"wal disk fsync/4096", true, 4096},
        Mode{"wal disk fsync/1024", true, 1024}}) {
    durability::MemStorage mem;
    durability::PosixStorage posix;
    durability::Storage& storage =
        mode.posix ? static_cast<durability::Storage&>(posix)
                   : static_cast<durability::Storage&>(mem);
    const std::string dir = mode.posix ? posix_dir : "bench";
    if (mode.posix) CleanDir(storage, dir);
    const DurabilityRun run =
        RunOnce(config, data, &storage, dir, mode.sync_interval);
    char overhead[32], walmb[32], num[32], ms[32];
    std::snprintf(overhead, sizeof(overhead), "%.2fx",
                  run.ns_per_update / off.ns_per_update);
    std::snprintf(walmb, sizeof(walmb), "%.1f",
                  static_cast<double>(run.wal_bytes) / (1024.0 * 1024.0));
    std::snprintf(ms, sizeof(ms), "%.1f", run.recovery_ms);
    std::snprintf(num, sizeof(num), "%llu",
                  static_cast<unsigned long long>(run.wal_syncs));
    PrintRow({mode.name, FmtTime(run.ns_per_update), overhead, walmb, num,
              std::to_string(run.checkpoints), ms,
              std::to_string(run.replayed_updates)});
    if (mode.posix) CleanDir(storage, dir);
  }
  return 0;
}

}  // namespace
}  // namespace streamq::bench

int main() { return streamq::bench::Main(); }
