// The layer replay of the traced run: the workload's own generated frames
// pushed, inside this process, through each layer's public entry points,
// one span per call, so a request's time splits by layer:
//
//   net        FrameBuffer + DecodeRequest, EncodeResponse, and
//              StreamqServer::Pump over a MakeLoopbackPair connection
//   ingest     IngestPipeline::TryPushBatch, Flush, Query, Rank
//   quantile   QuantileSketch::UpdateBatch on the round-robin shard runs,
//              Clone, Merge, Query, EstimateRank
//   durability WalWriter::AppendBatch and Sync at the server's interval,
//              IngestPipeline::Checkpoint, recovery by IngestPipeline::Create
//   obs        ReservoirShadow::ObserveSpan, IngestPipeline::AuditNow
//
// Spans inside the program are not used: every span here wraps a call made
// from this file.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "util.h"
#include "workload.h"

namespace perfbench {

struct ReplayOptions {
  std::string work_dir;
  /// Data dir of the killed server of the TCP run (durable workloads):
  /// recovery is timed on it. Empty = time recovery on a replay pipeline.
  std::string killed_dir;
};

/// Largest |sum of per-layer self-time medians - service median| /
/// service median the reconciliation accepts. The layers' spans wrap every
/// call a BATCH_INSERT makes, so the difference is time no layer accounts
/// for (the replay loop itself, or a layer call left unwrapped).
inline constexpr double kReconcileTolerance = 0.20;

struct ReplayResult {
  std::map<std::string, double> metrics;
  std::vector<std::string> failures;
  SpanLog spans;
  /// Reconciliation of one BATCH_INSERT's service time (microseconds):
  /// the service median against the sum of the layers' self-time medians.
  double service_median_us = 0.0;
  double self_sum_us = 0.0;
  std::vector<std::pair<std::string, double>> self_medians_us;
};

ReplayResult RunReplay(const WorkloadSpec& spec,
                       const std::vector<FramePool>& pools,
                       const ReplayOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
