// bench_audit: what does the live accuracy audit plane cost per update?
//
// Drives the same uniform stream through the sharded ingest pipeline's
// batched hot path (PushBatch, 1024-update client batches -- the gate the
// issue sets is on *batched ingest throughput*) twice:
//
//   unaudited  -- options.audit.enabled = false: the pipeline exactly as
//                 every other bench measures it;
//   audited    -- per-shard reservoir shadows fed on the shard workers
//                 (skip-counter decrement per update in the common case,
//                 Vitter Algorithm L), snapshots cloning the shadow beside
//                 the sketch. This is the production audit configuration,
//                 and the one the baseline checker HARD-GATES at 5% over
//                 unaudited: a safety net that taxes the hot path is a
//                 safety net that gets turned off.
//
// After the timing lanes, one more audited run scores the merged sketch
// against the merged shadow (AuditNow) a few times: the round latency is
// reported for sanity, and the checker hard-gates violations == 0 -- a
// correctly-provisioned pipeline must audit clean, otherwise either the
// sketch or the auditor's budget math regressed.
//
// Each lane is the MINIMUM of STREAMQ_REPS (default 11) runs -- min, not
// mean, as in bench_trace_overhead: the quantity under test is
// deterministic instruction cost and the noise is strictly additive. The
// lanes are interleaved (unaudited, audited, unaudited, ...) so an ambient
// slowdown mid-bench degrades both mins equally instead of biasing
// whichever lane ran under it.
//
// n defaults to 8M: the shadow's sampling events number k (fill) +
// k ln(n/k) (Algorithm L replacements) per shard, so short streams pay a
// proportionally larger warmup share. 8M is where the per-update share is
// within ~15% of its asymptote for k = 4096 -- the steady-state cost a
// long-lived audited stream actually pays, which is what the 5% gate is
// about. (At n = 2M the same configuration measures ~2x the per-update
// audit cost, all of it warmup.)
//
// Usage: bench_audit [--json] [OUT.json]
//   --json         write the BENCH_baseline.json "audit" section (to
//                  OUT.json, default stdout; splice it into the committed
//                  baseline with `scripts/check_bench_json.py
//                  BENCH_baseline.json --splice audit OUT.json`)
//   (default)      human-readable table on stdout
//
// Scale knobs: STREAMQ_SCALE (base n = 2,000,000), STREAMQ_REPS.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/audit.h"

namespace streamq::bench {
namespace {

constexpr size_t kReservoir = 4096;
constexpr size_t kClientBatch = 1024;

ingest::IngestOptions PipelineOptions(bool audited) {
  ingest::IngestOptions options;
  options.sketch.algorithm = Algorithm::kRandom;
  options.sketch.eps = 0.01;
  options.sketch.log_universe = 24;
  options.sketch.seed = 3;
  options.shards = 2;
  options.ring_capacity = 1 << 14;
  options.batch_size = 256;
  options.publish_interval = 1 << 16;
  options.audit.enabled = audited;
  options.audit.reservoir = kReservoir;
  return options;
}

std::unique_ptr<ingest::IngestPipeline> MakePipeline(bool audited) {
  auto pipeline = ingest::IngestPipeline::Create(PipelineOptions(audited));
  if (pipeline == nullptr) {
    std::fprintf(stderr, "bench_audit: pipeline creation failed\n");
    std::exit(1);
  }
  return pipeline;
}

void PushAll(ingest::IngestPipeline& pipeline,
             const std::vector<Update>& updates) {
  for (size_t i = 0; i < updates.size(); i += kClientBatch) {
    const size_t n = std::min(kClientBatch, updates.size() - i);
    pipeline.PushBatch(std::span<const Update>(updates.data() + i, n));
  }
}

double RunOnce(const std::vector<Update>& updates, bool audited) {
  auto pipeline = MakePipeline(audited);
  const auto start = std::chrono::steady_clock::now();
  PushAll(*pipeline, updates);
  pipeline->Flush();
  const auto stop = std::chrono::steady_clock::now();
  pipeline->Stop();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(updates.size());
}

struct LaneTimes {
  double unaudited_ns = 0.0;
  double audited_ns = 0.0;
};

LaneTimes RunLanes(const std::vector<Update>& data, int reps) {
  LaneTimes best;
  for (int rep = 0; rep < reps; ++rep) {
    const double unaudited = RunOnce(data, /*audited=*/false);
    const double audited = RunOnce(data, /*audited=*/true);
    if (rep == 0 || unaudited < best.unaudited_ns) {
      best.unaudited_ns = unaudited;
    }
    if (rep == 0 || audited < best.audited_ns) best.audited_ns = audited;
  }
  return best;
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

  const uint64_t n = ScaledN(8'000'000);
  const int reps = std::max(Repetitions(), 11);

  DatasetSpec spec;
  spec.distribution = Distribution::kUniform;
  spec.n = n;
  spec.log_universe = 24;
  spec.seed = 29;
  std::vector<Update> data;
  {
    std::vector<uint64_t> values = GenerateDataset(spec);
    data.reserve(values.size());
    for (uint64_t v : values) data.push_back(Update{v, +1});
  }

  const LaneTimes lanes = RunLanes(data, reps);
  const double unaudited_ns = lanes.unaudited_ns;
  const double audited_ns = lanes.audited_ns;

  // Round latency + correctness: one more audited ingest, then score it.
  auto pipeline = MakePipeline(/*audited=*/true);
  PushAll(*pipeline, data);
  pipeline->Flush();
  const int rounds = 3;
  double round_us = 0.0;
  obs::AuditReport report;
  for (int r = 0; r < rounds; ++r) {
    const auto start = std::chrono::steady_clock::now();
    report = pipeline->AuditNow();
    const auto stop = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(stop - start).count();
    if (r == 0 || us < round_us) round_us = us;
  }
  uint64_t violations = 0;
  double max_err = 0.0;
  {
    const auto counters = pipeline->GetAuditCounters();
    violations = counters.violations;
    max_err = counters.max_observed_err;
  }
  const double eps_budget = pipeline->audit_config().eps *
                            pipeline->audit_config().slack;
  pipeline->Stop();

  if (!as_json) {
    std::printf("bench_audit: n=%" PRIu64 " reps=%d reservoir=%zu "
                "(min-of-reps)\n", n, reps, kReservoir);
    std::printf("  unaudited  %8.2f ns/update\n", unaudited_ns);
    std::printf("  audited    %8.2f ns/update  (%+.1f%%)\n", audited_ns,
                (audited_ns / unaudited_ns - 1.0) * 100.0);
    std::printf("  round      %8.1f us  rounds=%d violations=%" PRIu64
                " max_err=%.6f budget=%.6f%s\n",
                round_us, rounds, violations, max_err, eps_budget,
                report.valid ? "" : " (INVALID ROUND)");
    return 0;
  }

  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"algorithm\": \"Random\",\n"
      "  \"dataset\": \"uniform-random\",\n"
      "  \"n\": %" PRIu64 ",\n"
      "  \"reservoir\": %zu,\n"
      "  \"eps_budget\": %.6f,\n"
      "  \"lanes\": {\n"
      "    \"unaudited\": {\"ns_per_update\": %.3f},\n"
      "    \"audited\": {\"ns_per_update\": %.3f}\n"
      "  },\n"
      "  \"rounds\": %d,\n"
      "  \"violations\": %" PRIu64 ",\n"
      "  \"max_observed_err\": %.6f,\n"
      "  \"round_us\": %.1f\n"
      "}\n",
      n, kReservoir, eps_budget, unaudited_ns, audited_ns, rounds,
      violations, max_err, round_us);
  const std::string json = buf;

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
