// The cluster tier in one harness: k IngestNodes, one ClusterCoordinator,
// and a pair of FaultyChannels per node (data up, acks down), all under
// the deterministic virtual clock (one tick per appended update).
//
// QuantileCluster is the composition root the tests, benches and examples
// drive. It routes a single logical stream across the nodes round-robin,
// as the pipeline routes its shards -- the node of the update with global
// seq s is s mod k -- and records each node's routed sub-stream, which is
// what makes kill-and-recover
// reproducible: after a node is restarted from whatever its storage holds,
// ReplayNode() re-pushes exactly the recorded tail from the pipeline's
// ResumeSeq() and the per-shard seq dedup absorbs the overlap.
//
// Failure model: KillNode() drops the node object mid-flight (tests arm a
// FaultyStorage crash first, so the destructor's final flush hits dead
// storage exactly like a real power loss); appends routed to a dead node
// are counted and dropped, like a connection refused at ingress. The
// coordinator keeps answering from the survivors with partial = true and
// per-node staleness; RestartNode() + ReplayNode() then converge the
// revived node back to byte-equality with an uninterrupted run.
//
// Everything -- channel faults, storage faults, routing, sketch
// randomness -- is seed-driven, so any failing configuration replays
// bit-for-bit from its seed.

#ifndef STREAMQ_CLUSTER_CLUSTER_H_
#define STREAMQ_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/ingest_node.h"
#include "cluster/channel.h"
#include "obs/metrics.h"
#include "stream/update.h"

namespace streamq::cluster {

struct ClusterOptions {
  int nodes = 2;
  /// Per-node pipeline template. Its sketch config is shared with the
  /// coordinator; when `node_storage` is supplied, its durability.storage
  /// and durability.dir are overridden per node (enabled = true), and when
  /// not, durability is forced off.
  ingest::IngestOptions node_pipeline;
  /// Count-growth shipping trigger of every node.
  double theta = 0.05;
  RetryPolicy retry;
  /// Coordinator staleness threshold and probe backoff.
  uint64_t stale_after = 1024;
  RetryPolicy probe;
  /// Fault model of the two channel directions (same spec for every node;
  /// each node's channels still draw from independent seeded streams).
  FaultSpec data_faults;
  FaultSpec ack_faults;
  uint64_t seed = 1;
  /// One Storage per node => durable cluster. Empty => in-memory only.
  /// Unowned; must outlive the cluster (and any RestartNode it serves).
  std::vector<durability::Storage*> node_storage;
  /// Node i keeps its durable state under "<dir_prefix>/node<i>".
  std::string dir_prefix = "cluster";
};

class QuantileCluster {
 public:
  /// Builds and starts all nodes (running their recovery when durable
  /// state exists). nullptr when the options are rejected (bad node
  /// count, storage vector size mismatch, or a pipeline refusal).
  static std::unique_ptr<QuantileCluster> Create(const ClusterOptions& options);

  /// Appends one update to the cluster: advances the clock, routes to a
  /// node, observes there, and pumps the protocol once. Returns the node
  /// id, or -1 when the target node is down (the update is dropped and
  /// counted -- its seq is still consumed, so routing stays stable).
  int Append(const Update& update);
  int Append(uint64_t value) { return Append(Update{value, +1}); }

  /// One protocol round at the current time: deliver due shipments,
  /// coordinator probes, deliver due acks, node retransmits.
  void Pump();

  /// Ships every live node's complete state and pumps (advancing time)
  /// until the coordinator exactly covers every live node and nothing is
  /// unacked, or max_ticks elapse. True when fully converged.
  bool Quiesce(uint64_t max_ticks = 200'000);

  ClusterAnswer Query(double phi, QueryScope scope = QueryScope::kAll);
  ClusterAnswer Rank(uint64_t value, QueryScope scope = QueryScope::kAll);

  // --- failover ---------------------------------------------------------

  /// Tears the node down where it stands (pending channel traffic stays
  /// in flight; the coordinator keeps its last accepted state). With a
  /// durable node, arm the crash on its FaultyStorage first -- the
  /// destructor's final flush then fails against dead storage exactly
  /// like a power loss.
  void KillNode(int node);

  /// Rebuilds the node from its storage (recovery + NodeMeta). `storage`,
  /// when non-null, replaces the node's storage from here on -- the
  /// restart-from-raw-disk idiom after a FaultyStorage crash. False when
  /// the node is still up or recovery fails.
  bool RestartNode(int node, durability::Storage* storage = nullptr);

  /// Re-pushes the node's recorded sub-stream from its ResumeSeq()
  /// (pumping as it goes); the producer half of the restart contract.
  /// Returns the number of re-pushed updates.
  uint64_t ReplayNode(int node);

  bool NodeAlive(int node) const { return nodes_[size_t(node)] != nullptr; }

  // --- introspection ----------------------------------------------------

  /// Worst-case rank slack of coordinator answers on top of the merged
  /// eps * n bound: updates appended (and not dropped) but not yet
  /// reflected in any accepted shipment, summed over all nodes.
  uint64_t StalenessBound() const;

  /// Audits the coordinator's global merged answer against the merged
  /// per-node shadows collected from every live node's pipeline. Dead
  /// nodes contribute no shadow; the elements their last accepted
  /// shipment still covers land in the auditor's coverage-gap guard, as
  /// does any unshipped staleness. Default (invalid) report when
  /// node_pipeline.audit is not enabled.
  obs::AuditReport AuditGlobal(QueryScope scope = QueryScope::kAll);

  uint64_t now() const { return now_; }
  uint64_t appended(int node) const { return streams_[size_t(node)].size(); }
  uint64_t dropped_appends() const { return dropped_appends_; }
  ClusterCoordinator& coordinator() { return coordinator_; }
  const ClusterCoordinator& coordinator() const { return coordinator_; }
  /// nullptr while the node is down.
  IngestNode* node(int node) { return nodes_[size_t(node)].get(); }
  const std::vector<Update>& node_stream(int node) const {
    return streams_[size_t(node)];
  }
  const ChannelStats& data_channel_stats(int node) const {
    return data_ch_[size_t(node)]->stats();
  }
  const ChannelStats& ack_channel_stats(int node) const {
    return ack_ch_[size_t(node)]->stats();
  }
  int nodes() const { return static_cast<int>(nodes_.size()); }

  /// Publishes a cluster snapshot into `registry` under "<prefix>.*":
  /// coordinator accept/reject/probe counters, global reported count and
  /// staleness bound, and per-node gauges (alive, epoch, known count,
  /// staleness ticks) under "<prefix>.node<i>.*".
  void PublishMetrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) const;

 private:
  explicit QuantileCluster(const ClusterOptions& options);

  /// The resolved per-node options (durability storage/dir filled in).
  IngestNodeOptions NodeOptions(int node) const;
  void ObserveOn(int node, const Update& update);
  bool Converged() const;

  ClusterOptions options_;
  ClusterCoordinator coordinator_;
  std::vector<std::unique_ptr<IngestNode>> nodes_;
  std::vector<std::unique_ptr<FaultyChannel>> data_ch_;  // node -> coord
  std::vector<std::unique_ptr<FaultyChannel>> ack_ch_;   // coord -> node
  std::vector<FaultyChannel*> ack_ptrs_;  // coordinator Tick's view
  std::vector<std::vector<Update>> streams_;  // recorded per-node streams
  uint64_t now_ = 0;
  uint64_t global_seq_ = 0;
  uint64_t dropped_appends_ = 0;
};

}  // namespace streamq::cluster

#endif  // STREAMQ_CLUSTER_CLUSTER_H_
