// bench_trace_overhead: what does the flight recorder cost per update?
//
// Pushes the same uniform stream through the sharded ingest pipeline in
// both tracing states and reports ns/update:
//
//   idle       -- tracer disabled, the production configuration: each
//                 macro site is one relaxed atomic load + branch;
//   recording  -- tracer enabled, every site writing into its ring: the
//                 full cost of capture (clock read + 4 atomic stores per
//                 event), paid only while actively profiling.
//
// check_bench_json.py requires the recording lane to record events and the
// idle lane to record none; it gates no timing here. The instrumentation is
// always compiled in: the last measurement against a build without it
// (EXPERIMENTS.md) put idle within noise of it.
//
// Each lane is the MINIMUM of STREAMQ_REPS (default 5) runs -- min, not
// mean, because the quantity under test is deterministic instruction cost
// and the noise (scheduler, frequency) is strictly additive.
//
// Usage: bench_trace_overhead [--json] [OUT.json]
//   --json         write the BENCH_baseline.json "trace_overhead" section
//                  (to OUT.json, default stdout; splice it into the
//                  committed baseline with
//                  `scripts/check_bench_json.py BENCH_baseline.json
//                  --splice trace_overhead OUT.json`)
//   (default)      human-readable table on stdout
//
// Scale knobs: STREAMQ_SCALE (base n = 2,000,000), STREAMQ_REPS.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/trace.h"

namespace streamq::bench {
namespace {

struct Lane {
  const char* mode;
  double ns_per_update = 0.0;
  uint64_t events_recorded = 0;
};

ingest::IngestOptions PipelineOptions() {
  ingest::IngestOptions options;
  options.sketch.algorithm = Algorithm::kRandom;
  options.sketch.eps = 0.01;
  options.sketch.log_universe = 24;
  options.sketch.seed = 3;
  options.shards = 2;
  options.ring_capacity = 1 << 14;
  options.batch_size = 256;
  options.publish_interval = 1 << 16;
  return options;
}

double RunOnce(const std::vector<uint64_t>& data) {
  auto pipeline = ingest::IngestPipeline::Create(PipelineOptions());
  if (pipeline == nullptr) {
    std::fprintf(stderr, "bench_trace_overhead: pipeline creation failed\n");
    std::exit(1);
  }
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t v : data) pipeline->Push(Update{v, +1});
  pipeline->Flush();
  const auto stop = std::chrono::steady_clock::now();
  pipeline->Stop();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(data.size());
}

Lane RunLane(const char* mode, bool enabled,
             const std::vector<uint64_t>& data, int reps) {
  Lane lane;
  lane.mode = mode;
  lane.ns_per_update = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().SetEnabled(enabled);
    const double ns = RunOnce(data);
    obs::Tracer::Global().SetEnabled(false);
    if (rep == 0 || ns < lane.ns_per_update) lane.ns_per_update = ns;
  }
  lane.events_recorded = obs::Tracer::Global().TotalRecorded();
  obs::Tracer::Global().Clear();
  return lane;
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

  const uint64_t n = ScaledN(2'000'000);
  const int reps = std::max(Repetitions(), 5);

  DatasetSpec spec;
  spec.distribution = Distribution::kUniform;
  spec.n = n;
  spec.log_universe = 24;
  spec.seed = 29;
  const std::vector<uint64_t> data = GenerateDataset(spec);

  const std::vector<Lane> lanes = {
      RunLane("idle", /*enabled=*/false, data, reps),
      RunLane("recording", /*enabled=*/true, data, reps),
  };

  if (!as_json) {
    std::printf("bench_trace_overhead: n=%" PRIu64 " reps=%d (min-of-reps)\n",
                n, reps);
    for (const Lane& lane : lanes) {
      std::printf("  %-10s %8.2f ns/update  %12" PRIu64 " events\n",
                  lane.mode, lane.ns_per_update, lane.events_recorded);
    }
    return 0;
  }

  std::string json = "{\n";
  json += "  \"n\": " + std::to_string(n) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"lanes\": {\n";
  bool first = true;
  for (const Lane& lane : lanes) {
    if (!first) json += ",\n";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"ns_per_update\": %.3f, "
                  "\"events_recorded\": %" PRIu64 "}",
                  lane.mode, lane.ns_per_update, lane.events_recorded);
    json += buf;
  }
  json += "\n  }\n}\n";

  if (out_path == nullptr) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
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
