// trace_profile: capture a flight-recorder trace of a durable ingest run.
//
// Runs the sharded pipeline (WAL + checkpoints on in-memory storage) with
// tracing enabled, then writes both exports:
//
//   * a Chrome trace-event JSON timeline (open in chrome://tracing or
//     https://ui.perfetto.dev) of pushes, worker batches, sketch updates,
//     compactions, WAL appends/syncs/rolls, checkpoints, and view flips;
//   * a Prometheus text-format dump of the pipeline's MetricsRegistry,
//     including ValueAtQuantile-backed summary lines.
//
// With --crash N, a storage fault is armed at the Nth fsync: every storage
// operation after it fails, the shard's WAL writer goes dead, and the
// flight recorder auto-dumps to --out-trace with crash_reason "wal_dead" —
// the same path a production stall/dead-writer freeze takes. The normal
// (no --crash) mode dumps explicitly at the end of the run.
//
// Usage:
//   trace_profile [--n UPDATES] [--shards S] [--ring-events E]
//                 [--out-trace FILE] [--out-prom FILE] [--crash N]
//
// Exit code 0 on success (including the deliberate --crash run, whose
// success criterion is "the auto-dump fired"), 1 on any failure.
//
// scripts/check_trace_json.py and scripts/check_prometheus_text.py drive
// this binary as their producer; keep flag names stable.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "durability/faulty_storage.h"
#include "durability/storage.h"
#include "ingest/ingest_pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "quantile/factory.h"
#include "stream/update.h"

namespace {

struct Args {
  uint64_t n = 200000;
  int shards = 2;
  size_t ring_events = 0;  // 0 = tracer default
  uint64_t crash_at_sync = 0;  // 0 = no crash
  std::string out_trace = "trace_profile.trace.json";
  std::string out_prom = "trace_profile.prom.txt";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--n") {
      const char* v = next();
      if (v == nullptr) return false;
      args->n = std::strtoull(v, nullptr, 10);
    } else if (flag == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      args->shards = std::atoi(v);
    } else if (flag == "--ring-events") {
      const char* v = next();
      if (v == nullptr) return false;
      args->ring_events = std::strtoull(v, nullptr, 10);
    } else if (flag == "--crash") {
      const char* v = next();
      if (v == nullptr) return false;
      args->crash_at_sync = std::strtoull(v, nullptr, 10);
    } else if (flag == "--out-trace") {
      const char* v = next();
      if (v == nullptr) return false;
      args->out_trace = v;
    } else if (flag == "--out-prom") {
      const char* v = next();
      if (v == nullptr) return false;
      args->out_prom = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return args->n > 0 && args->shards > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace streamq;

  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s [--n UPDATES] [--shards S] [--ring-events E]\n"
                 "          [--out-trace FILE] [--out-prom FILE] [--crash N]\n",
                 argv[0]);
    return 1;
  }

  obs::Tracer& tracer = obs::Tracer::Global();
  if (args.ring_events > 0) tracer.SetRingEvents(args.ring_events);
  tracer.SetEnabled(true);
  // Arm the auto-dump before the pipeline exists so every failure mode —
  // recovery, dead writer, stall — lands a flight record at the same path.
  tracer.SetCrashDumpPath(args.out_trace);

  durability::MemStorage disk;
  durability::FaultyStorage faulty(
      &disk, durability::StorageFaultSpec::Perfect(), /*seed=*/1);
  if (args.crash_at_sync > 0) {
    faulty.ArmCrashAtOp(durability::StorageOp::kSync, args.crash_at_sync);
  }

  ingest::IngestOptions options;
  options.sketch.algorithm = Algorithm::kRandom;
  options.sketch.eps = 0.01;
  options.sketch.log_universe = 24;
  options.sketch.seed = 42;
  options.shards = args.shards;
  options.ring_capacity = 1 << 12;
  options.batch_size = 256;
  options.publish_interval = 1 << 14;
  options.durability.enabled = true;
  options.durability.storage = &faulty;
  options.durability.dir = "trace-profile-dur";
  options.durability.sync_interval = 1024;
  options.durability.checkpoint_interval = 1 << 16;
  options.durability.segment_bytes = 1 << 18;

  auto pipeline = ingest::IngestPipeline::Create(options);
  if (pipeline == nullptr) {
    std::fprintf(stderr, "pipeline creation failed\n");
    return 1;
  }

  // Zipf-flavoured value mix: repeated small values force compactions,
  // scattered large ones exercise the universe, so the captured trace has
  // visibly interesting sketch_compaction spans.
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < args.n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint64_t value =
        (i % 4 != 0) ? (x % 1024) : (x % (uint64_t{1} << 24));
    pipeline->Push(Update{value, +1});
  }
  pipeline->Flush();
  const double p50 = static_cast<double>(pipeline->Query(0.5));
  const double p99 = static_cast<double>(pipeline->Query(0.99));
  pipeline->Stop();

  if (args.crash_at_sync > 0) {
    // The run's whole point: the dying WAL writer must have auto-dumped.
    if (!tracer.crash_dumped()) {
      std::fprintf(stderr,
                   "--crash %llu armed but no flight-recorder dump fired\n",
                   static_cast<unsigned long long>(args.crash_at_sync));
      return 1;
    }
    std::printf("crash dump written to %s\n", args.out_trace.c_str());
  } else {
    if (!obs::WriteChromeTraceFile(tracer, args.out_trace)) {
      std::fprintf(stderr, "failed to write %s\n", args.out_trace.c_str());
      return 1;
    }
    std::printf("trace written to %s (%llu events recorded)\n",
                args.out_trace.c_str(),
                static_cast<unsigned long long>(tracer.TotalRecorded()));
  }

  obs::MetricsRegistry registry;
  pipeline->PublishMetrics(registry, "pipeline");
  if (!obs::WritePrometheusTextFile(registry, args.out_prom)) {
    std::fprintf(stderr, "failed to write %s\n", args.out_prom.c_str());
    return 1;
  }
  std::printf("metrics written to %s\n", args.out_prom.c_str());
  std::printf("p50=%.0f p99=%.0f durable_seq=%llu\n", p50, p99,
              static_cast<unsigned long long>(pipeline->DurableSeq()));
  return 0;
}
