// Coordinator of the shipping protocol: validates epoch-numbered
// shipments, keeps the newest accepted sketch per sender, and answers
// global quantile and rank queries over them. It serves both tiers: the
// cluster's IngestNodes and the monitor's GKArray sites.
//
// How it answers depends on the shared config:
//
//  * Mergeable (Random, MRL99, FastQDigest, DCM, DCS): a query merges the
//    per-node sketches -- in node-id order, so the merged result is
//    deterministic -- into a fresh scratch sketch built from the shared
//    config, which then carries the usual mergeable-summary eps * n bound
//    over the union of the merged nodes' streams.
//  * GKArray, the one non-mergeable summary any sender ships: a query
//    answers from the weighted union of every scoped node's (v, g)
//    tuples, taking the phi-quantile at phi times the union's total
//    weight.
//
// Defence ladder on every shipment, in order (each rung leaves all node
// state untouched on failure):
//   1. frame validation (magic/version/type/length/CRC32C),
//   2. structural parse + node range + epoch != 0,
//   3. epoch dedup (duplicates/stale reorders are re-acked, not applied),
//   4. nested sketch frame decode (its own CRC + exact parse),
//   5. count cross-check (decoded sketch vs sender's claim),
//   6. compatibility with the shared config: a sketch the config can merge,
//      or, for a non-mergeable config, a summary of the configured
//      algorithm.
//
// Degradation is explicit, never silent: per-node staleness (ticks since
// the last accepted shipment) is tracked, silent nodes become "suspect"
// after stale_after ticks and get capped-backoff re-ship probes, and
// queries report how many nodes the answer actually covers (QueryScope
// picks whether suspects are merged or excluded). A dead node degrades
// the answer to the survivors' streams -- within their merged eps * n
// bound -- with partial = true, rather than blocking or guessing.

#ifndef STREAMQ_CLUSTER_COORDINATOR_H_
#define STREAMQ_CLUSTER_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/channel.h"
#include "cluster/shipping.h"
#include "obs/audit.h"
#include "quantile/factory.h"
#include "quantile/weighted_sample.h"

namespace streamq::cluster {

struct ClusterCoordinatorOptions {
  int nodes = 2;
  /// Shared sketch config (the nodes must be built from the same one).
  SketchConfig sketch;
  /// A node with no accepted shipment for this many ticks is suspect.
  uint64_t stale_after = 1024;
  /// Backoff of the re-ship probes sent to suspect nodes.
  RetryPolicy probe;
  /// Global-answer accuracy audit (obs/audit.h): eps == 0 resolves to
  /// sketch.eps, slack == 0 to the per-algorithm convention
  /// (obs::ResolveAuditConfig).
  obs::AuditConfig audit;
};

/// How a query treats suspect nodes.
enum class QueryScope {
  kAll,       ///< merge every node that ever reported (suspects included)
  kLiveOnly,  ///< exclude suspects: the survivors-only partial answer
};

struct ClusterAnswer {
  uint64_t value = 0;           ///< quantile value or rank estimate
  uint64_t reported_count = 0;  ///< union count of the merged nodes
  int nodes_merged = 0;
  int nodes_suspect = 0;        ///< suspect at query time (merged or not)
  /// True when some configured node is missing from the merge (never
  /// reported, or suspect under kLiveOnly): `value` covers only the
  /// merged nodes' streams.
  bool partial = false;
};

/// Per-node view, as reported by Status().
struct ClusterNodeStatus {
  bool reported = false;      ///< at least one accepted shipment
  bool suspect = false;
  uint64_t epoch = 0;
  uint64_t count = 0;
  uint64_t last_accept_tick = 0;
  uint64_t staleness_ticks = 0;  ///< now - last_accept_tick
};

struct ClusterCoordinatorStats {
  size_t accepted = 0;
  size_t rejected_corrupt = 0;       ///< frame validation failed
  size_t rejected_malformed = 0;     ///< parse/range/count-mismatch failed
  size_t rejected_stale = 0;         ///< epoch dedup (re-acked)
  size_t rejected_incompatible = 0;  ///< sketch the config cannot answer from
  size_t acks_sent = 0;
  size_t probes_sent = 0;
};

class ClusterCoordinator {
 public:
  explicit ClusterCoordinator(const ClusterCoordinatorOptions& options);

  /// Validates one shipment delivery (the defence ladder above) and, when
  /// accepted or merely stale, acks the node's highest epoch through
  /// `ack_tx`.
  void HandleShipment(const std::string& bytes, uint64_t now,
                      FaultyChannel& ack_tx);

  /// Advances virtual time: sends capped-backoff re-ship probes to
  /// suspect nodes. `ack_tx[i]` is node i's ack channel (nullptr skips
  /// the node -- e.g. the harness knows it is down).
  void Tick(uint64_t now, const std::vector<FaultyChannel*>& ack_tx);

  /// Cluster-wide phi-quantile over the merged scope.
  ClusterAnswer Query(double phi, uint64_t now,
                      QueryScope scope = QueryScope::kAll);

  /// Cluster-wide rank estimate of `value` over the merged scope.
  ClusterAnswer Rank(uint64_t value, uint64_t now,
                     QueryScope scope = QueryScope::kAll);

  ClusterNodeStatus Status(int node, uint64_t now) const;
  bool Suspect(int node, uint64_t now) const;

  /// Union count over every node that ever reported.
  uint64_t ReportedCount() const;
  uint64_t KnownCount(int node) const;
  uint64_t HighestEpoch(int node) const;

  /// Accounting bytes of the retained per-node sketches.
  size_t MemoryBytes() const;

  /// True when options.audit.enabled built an auditor.
  bool AuditEnabled() const { return auditor_ != nullptr; }

  /// Audits the *global* answer -- from the same scope every Query
  /// answers from -- against the merged per-node shadows (each an exact
  /// uniform sample of its node's stream; the harness collects them from
  /// the live pipelines). This is what catches merge-induced error
  /// inflation: every rung of the merge path is exercised, not the node
  /// sketches individually. Elements in the shadows but not yet in any
  /// accepted shipment (staleness), or covered by a dead node's last
  /// shipment but missing from the shadows, are absorbed by the auditor's
  /// coverage-gap guard. Returns a default (invalid) report when auditing
  /// is off or nothing merges.
  obs::AuditReport AuditGlobal(
      const std::vector<const obs::ReservoirShadow*>& node_shadows,
      uint64_t now, QueryScope scope = QueryScope::kAll);

  const obs::AccuracyAuditor* auditor() const { return auditor_.get(); }

  int nodes() const { return static_cast<int>(views_.size()); }
  const ClusterCoordinatorStats& stats() const { return stats_; }

 private:
  struct NodeView {
    std::unique_ptr<QuantileSketch> sketch;  // newest accepted; null = none
    uint64_t epoch = 0;
    uint64_t count = 0;
    uint64_t last_accept_tick = 0;
    uint64_t next_probe_at = 0;
    uint64_t probe_backoff = 0;
  };

  void SendAck(int node, uint64_t now, FaultyChannel& ack_tx);
  /// What one query scope answers from: the node-id-ordered merge into a
  /// fresh sketch (mergeable config), or the weighted union of the GKArray
  /// tuples (non-mergeable config).
  struct Scoped {
    std::unique_ptr<QuantileSketch> merged;
    std::optional<WeightedSampleView<uint64_t>> tuples;
    uint64_t Quantile(double phi);
    uint64_t Rank(uint64_t value);
  };

  /// Collects the scoped node summaries, filling the answer's coverage
  /// fields. Answers only when answer->nodes_merged > 0.
  Scoped CollectScope(uint64_t now, QueryScope scope, ClusterAnswer* answer);

  ClusterCoordinatorOptions options_;
  /// Empty sketch from the shared config: the compatibility reference for
  /// rung 6, and whether queries merge or take the weighted union.
  std::unique_ptr<QuantileSketch> reference_;
  std::vector<NodeView> views_;
  ClusterCoordinatorStats stats_;
  obs::AuditConfig audit_config_;  // resolved (eps/slack filled in)
  std::unique_ptr<obs::AccuracyAuditor> auditor_;  // null = audit off
};

}  // namespace streamq::cluster

#endif  // STREAMQ_CLUSTER_COORDINATOR_H_
