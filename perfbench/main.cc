// streamq end-to-end benchmark: load generator, output checks and layer
// replay. run.py builds this next to the server and calls it as
//
//   perfbench_loadgen --server BIN --work-dir DIR --workload NAME
//                     --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// and relays the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with --trace 1 they are the per-layer ones, from a second TCP
// run with client spans and from the in-process layer replay. The exit
// status is 0 only when every check passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "replay.h"
#include "tcp_run.h"
#include "util.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Re-measurements of an invalid open-loop window before the run fails.
constexpr int kInvalidRetries = 2;

struct Args {
  std::string server;
  std::string work_dir;
  std::string workload;
  std::string trace_out;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--server") {
      a->server = value;
    } else if (key == "--work-dir") {
      a->work_dir = value;
    } else if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      a->trace = std::atoi(value.c_str());
    } else if (key == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->server.empty() && !a->work_dir.empty() &&
         a->seconds >= 1 && (a->trace == 0 || a->trace == 1);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Prints one metric row, with the sample count and whether the
/// percentile has at least ten samples beyond it.
void Row(const char* name, const char* unit, double value, size_t samples,
         double pct) {
  std::printf("  %-34s %14.6g %-8s", name, value, unit);
  if (samples > 0) {
    const double beyond = static_cast<double>(samples) * (1.0 - pct / 100.0);
    std::printf("  n=%zu%s", samples,
                pct > 50.0 && beyond < 10.0 ? "  (fewer than 10 beyond)" : "");
  }
  std::printf("\n");
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The end-to-end metrics BENCHMARK.json gates.
std::vector<Metric> EndToEnd(const TcpRunResult& r) {
  const double mvals = static_cast<double>(r.values_acked) / 1e6;
  return {
      {"setup_s", "s", Median(r.setup_s)},
      {"ingest_mvals_per_s", "Mval/s", r.ingest_mvals_per_s},
      {"batch_ack_p50_us", "us", Median(Values(r.batch_ack_us))},
      {"flush_p50_ms", "ms", Median(Values(r.flush_ms))},
      {"query_p50_us", "us", Median(Values(r.query_us))},
      {"server_cpu_s_per_mval", "s/Mval", Ratio(r.server_cpu_s, mvals)},
      {"server_rss_mb", "MiB", r.server_rss_mb},
      {"recovery_s", "s", r.recovery_s},
  };
}

/// End-to-end tails and the failure share: printed beside the gated
/// metrics, and reported (ungated) by the traced run. On a shared 4-vCPU VM
/// their run-to-run spread is too wide to gate.
std::vector<Metric> Tails(const TcpRunResult& r) {
  return {
      {"batch_ack_p99_us", "us", SlicedPercentile(r.batch_ack_us, 99)},
      {"flush_p90_ms", "ms", SlicedPercentile(r.flush_ms, 90)},
      {"query_p99_us", "us", SlicedPercentile(r.query_us, 99)},
      {"failed_frac", "ratio",
       Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted))},
  };
}

void PrintEndToEnd(const TcpRunResult& r) {
  std::printf("end-to-end (tracing off):\n");
  const std::map<std::string, std::pair<size_t, double>> samples = {
      {"setup_s", {r.setup_s.size(), 50}},
      {"batch_ack_p50_us", {r.batch_ack_us.size(), 50}},
      {"batch_ack_p99_us", {r.batch_ack_us.size(), 99}},
      {"flush_p50_ms", {r.flush_ms.size(), 50}},
      {"flush_p90_ms", {r.flush_ms.size(), 90}},
      {"query_p50_us", {r.query_us.size(), 50}},
      {"query_p99_us", {r.query_us.size(), 99}},
  };
  std::vector<Metric> all = EndToEnd(r);
  for (const Metric& m : Tails(r)) all.push_back(m);
  for (const Metric& m : all) {
    const auto it = samples.find(m.name);
    Row(m.name.c_str(), m.unit.c_str(), m.value,
        it == samples.end() ? 0 : it->second.first,
        it == samples.end() ? 0 : it->second.second);
  }
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const TcpRunResult& a,
                             const TcpRunResult& b, const ReplayResult& rp,
                             double encode_ns_per_val) {
  // Counts from the /metrics scrapes around run A's window.
  auto d = [&](const std::string& name) {
    return a.after.Get(name) - a.before.Get(name);
  };
  auto d_streams = [&](const std::string& suffix) {
    return a.after.SumMatching("net.stream.", suffix) -
           a.before.SumMatching("net.stream.", suffix);
  };
  auto d_reads = [&](const std::string& suffix) {
    return a.after_reads.SumMatching("net.stream.", suffix) -
           a.before.SumMatching("net.stream.", suffix);
  };
  const double frames = d("net.requests.BATCH_INSERT");
  const double mvals = static_cast<double>(a.values_acked) / 1e6;
  const double stalls = d_streams(".ring_full_stalls");
  const double publishes = d_streams(".publishes");
  const double contended = d_streams(".publish_contended");
  const std::map<std::string, double>& r = rp.metrics;
  auto at = [&](const std::string& k) {
    const auto it = r.find(k);
    return it == r.end() ? 0.0 : it->second;
  };
  // Tracing overhead: the traced TCP run against the untraced one, on the
  // workload's headline metric (closed loop: capacity; open loop: ack p50).
  double overhead = 0.0;
  if (spec.open_loop) {
    const double a50 = Median(Values(a.batch_ack_us));
    overhead = Ratio(Median(Values(b.batch_ack_us)) - a50, a50);
  } else {
    overhead = Ratio(a.ingest_mvals_per_s - b.ingest_mvals_per_s,
                     a.ingest_mvals_per_s);
  }
  const double syncs_per_mval =
      spec.durable() ? Ratio(d_streams(".wal_syncs"), mvals)
                     : at("replay.syncs_per_mval");
  std::vector<Metric> out;
  for (const Metric& m : Tails(a)) {
    if (m.name != "failed_frac") out.push_back({"client." + m.name, m.unit, m.value});
  }
  std::vector<Metric> layers = {
      {"loadgen.lag_p99_ms", "ms", Percentile(a.lag_ms, 99)},
      {"loadgen.encode_ns_per_val", "ns/val", encode_ns_per_val},
      {"net.decode_ns_per_val", "ns/val", at("net.decode_ns_per_val")},
      {"net.encode_resp_ns_per_frame", "ns/frame",
       at("net.encode_resp_ns_per_frame")},
      {"net.bytes_per_val", "B/val",
       Ratio(d("net.bytes_read"), static_cast<double>(a.values_acked))},
      {"net.server_us_per_frame", "us/frame", at("net.server_us_per_frame")},
      {"net.server_self_us_per_frame", "us/frame",
       at("net.server_self_us_per_frame")},
      {"net.parks_per_kframe", "1/kframe", Ratio(d("net.parks"), frames) * 1e3},
      {"net.deferred_reads_per_kframe", "1/kframe",
       Ratio(d("net.deferred_reads"), frames) * 1e3},
      {"net.flush_hold_ms", "ms", at("net.flush_hold_ms")},
      {"net.read_pump_us", "us", at("net.read_pump_us")},
      {"ingest.push_ns_per_val", "ns/val", at("ingest.push_ns_per_val")},
      {"ingest.ring_full_frac", "ratio", Ratio(stalls, frames + stalls)},
      {"ingest.ring_wait_ms_per_mval", "ms/Mval",
       at("ingest.ring_wait_ms_per_mval")},
      {"ingest.publishes_per_mval", "1/Mval", Ratio(publishes, mvals)},
      {"ingest.publish_contended_frac", "ratio",
       Ratio(contended, publishes + contended)},
      {"ingest.publish_us_p50", "us", at("ingest.publish_us_p50")},
      {"ingest.backlog_vals_p99", "vals", at("ingest.backlog_vals_p99")},
      {"ingest.flush_ms_p50", "ms", at("ingest.flush_ms_p50")},
      {"ingest.read_us_p50", "us", at("ingest.read_us_p50")},
      {"ingest.stale_read_frac", "ratio",
       Ratio(d_reads(".stale_queries"), d_reads(".queries"))},
      {"quantile.apply_ns_per_val", "ns/val", at("quantile.apply_ns_per_val")},
      {"quantile.clone_us", "us", at("quantile.clone_us")},
      {"quantile.merge_us", "us", at("quantile.merge_us")},
      {"quantile.query_us", "us", at("quantile.query_us")},
      {"quantile.rank_us", "us", at("quantile.rank_us")},
      {"quantile.err_over_eps", "ratio", a.err_over_eps},
      {"durability.wal_append_us", "us", at("durability.wal_append_us")},
      {"durability.wal_sync_us", "us", at("durability.wal_sync_us")},
      {"durability.syncs_per_mval", "1/Mval", syncs_per_mval},
      {"durability.wal_bytes_per_val", "B/val",
       at("durability.wal_bytes_per_val")},
      {"durability.checkpoint_ms", "ms", at("durability.checkpoint_ms")},
      {"durability.recovery_ms", "ms", at("durability.recovery_ms")},
      {"obs.audit_observe_ns_per_val", "ns/val",
       at("obs.audit_observe_ns_per_val")},
      {"obs.audit_round_ms", "ms", at("obs.audit_round_ms")},
      {"obs.trace_overhead_frac", "ratio", overhead},
      {"obs.reconcile_gap_frac", "ratio",
       Ratio(rp.self_sum_us - rp.service_median_us, rp.service_median_us)},
  };
  out.insert(out.end(), layers.begin(), layers.end());
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --server BIN --work-dir DIR "
                 "--workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!MakeWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Inputs: every frame generated and encoded before any window opens.
  std::vector<FramePool> pools;
  double encode_ns = 0.0;
  for (size_t p = 0; p < spec.producer_stream.size(); ++p) {
    double ns = 0.0;
    pools.push_back(BuildPool(spec, static_cast<int>(p), args.seed, &ns));
    encode_ns += ns;
  }
  const double encode_ns_per_val =
      encode_ns / static_cast<double>(pools.size() * spec.pool_frames *
                                      spec.frame_values);

  TcpRunOptions options;
  options.server.binary = args.server;
  options.server.data_dir = args.work_dir + "/data";
  options.server.audit = spec.audit;
  options.server.audit_interval_ms = spec.audit_interval_ms;
  options.seed = args.seed;
  options.seconds = args.seconds;
  if (args.trace == 1) {
    // The untraced and the traced TCP run split the measured time.
    options.seconds = std::max(1, args.seconds / 2);
    options.killed_copy = args.work_dir + "/killed";
  }

  std::printf("workload %s, seed %llu, %d s window(s), %s loop\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              options.seconds, spec.open_loop ? "open" : "closed");
  // A window in which the generator fell behind its schedule measured the
  // generator, not the server: it is discarded and measured again.
  TcpRunResult a = RunTcp(spec, pools, options);
  for (int retry = 0; retry < kInvalidRetries && a.generator_fell_behind;
       ++retry) {
    std::printf("invalid window: send lag p99 %.3f ms; measuring again\n",
                Percentile(a.lag_ms, 99));
    a = RunTcp(spec, pools, options);
  }
  PrintEndToEnd(a);

  bool correct = a.failed == 0 && a.failures.empty();
  uint64_t attempted = a.attempted, failed = a.failed;
  std::vector<std::string> failures = a.failures;
  if (a.generator_fell_behind) {
    correct = false;
    failures.push_back("invalid run: the generator fell behind its schedule "
                       "(send lag p99 " +
                       std::to_string(Percentile(a.lag_ms, 99)) + " ms)");
  }

  std::vector<Metric> metrics = EndToEnd(a);
  if (args.trace == 1) {
    // Run B: the same TCP run with one client span per request.
    TcpRunOptions traced = options;
    traced.spans = true;
    traced.setup_reps = 1;
    traced.probe = false;
    traced.crash = false;
    TcpRunResult b = RunTcp(spec, pools, traced);
    attempted += b.attempted;
    failed += b.failed;
    if (b.failed != 0 || !b.failures.empty()) correct = false;
    for (const std::string& f : b.failures) failures.push_back("traced: " + f);

    ReplayOptions ro;
    ro.work_dir = args.work_dir;
    ro.killed_dir = spec.durable() ? options.killed_copy : "";
    ReplayResult rp = RunReplay(spec, pools, ro);
    ++attempted;
    if (!rp.failures.empty()) {
      correct = false;
      ++failed;
      failures.insert(failures.end(), rp.failures.begin(), rp.failures.end());
    }

    // Reconciliation of one BATCH_INSERT's service time.
    std::printf("trace reconciliation (BATCH_INSERT, layer replay):\n");
    for (const auto& [name, us] : rp.self_medians_us) {
      std::printf("  self %-26s %12.3f us\n", name.c_str(), us);
    }
    const double gap = rp.self_sum_us - rp.service_median_us;
    std::printf("  sum of self medians %12.3f us, service median %12.3f us, "
                "difference %+.3f us (%+.1f%%, tolerance %.0f%%)\n",
                rp.self_sum_us, rp.service_median_us, gap,
                100.0 * Ratio(gap, rp.service_median_us),
                100.0 * kReconcileTolerance);
    ++attempted;
    if (!(std::fabs(Ratio(gap, rp.service_median_us)) <=
          kReconcileTolerance)) {
      correct = false;
      ++failed;
      failures.push_back("trace does not reconcile with the service median");
    }

    SpanLog all = b.spans;
    all.Append(rp.spans);
    if (!args.trace_out.empty()) {
      if (all.WriteChromeTrace(args.trace_out)) {
        std::printf("chrome trace: %s (%zu spans)\n", args.trace_out.c_str(),
                    all.spans().size());
      } else {
        correct = false;
        failures.push_back("cannot write " + args.trace_out);
      }
    }

    metrics = PerLayer(spec, a, b, rp, encode_ns_per_val);
    std::printf("per-layer (traced run):\n");
    for (const Metric& m : metrics) {
      Row(m.name.c_str(), m.unit.c_str(), m.value, 0, 0);
    }
  }

  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("%s\n", Json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
