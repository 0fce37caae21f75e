// Node half of the cluster data path: a full durable ingest pipeline
// (src/ingest/) that ships its merged view to the ClusterCoordinator.
//
// Where a MonitorSite (site.h) observes into a single in-memory GKArray,
// an IngestNode runs the production pipeline -- sharded workers, RCU query
// view and, when configured, the WAL + checkpoint durability tier -- and
// ships *mergeable* sketches, so the coordinator can answer exact-count
// cluster-wide quantiles by merging them.
//
// Shipping follows the rules both senders share (shipping.h): the count
// trigger, a fresh epoch per shipment, capped-backoff retransmits, the ack
// fast-forward and the reship flag. An ack carrying kAckFlagReship (the
// coordinator's staleness probe) forces a fresh shipment. What is the
// node's own is the body of a shipment: it flushes the pipeline, clones
// the view, and persists NodeMeta before the bytes reach the wire.
//
// Failover: a durable node persists a tiny NodeMeta record (wire.h) via
// the atomic write-tmp/sync/rename protocol on every epoch it issues, so
// the restarted incarnation resumes epochs above everything the old one
// could have put on the wire even before the first ack arrives. The
// pipeline's own recovery (checkpoint + WAL tail) restores the data; the
// producer then re-pushes its recorded stream from ResumeSeq() and the
// per-shard seq dedup absorbs the overlap -- exactly the single-process
// restart contract, now driving the cluster resync as well.
//
// Single-threaded like the rest of the virtual-time harness: one owner
// calls Observe/HandleAck/Tick/ShipComplete; the pipeline inside runs its
// own worker threads.

#ifndef STREAMQ_CLUSTER_INGEST_NODE_H_
#define STREAMQ_CLUSTER_INGEST_NODE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/channel.h"
#include "cluster/shipping.h"
#include "ingest/ingest_pipeline.h"
#include "stream/update.h"

namespace streamq::cluster {

struct IngestNodeOptions {
  /// This node's id (also its slot at the coordinator; < cluster size).
  uint32_t node = 0;
  /// The node's full pipeline configuration. All nodes of one cluster must
  /// share the same sketch config (identical seed included) or the
  /// coordinator will reject their shipments as merge-incompatible.
  /// durability.dir should be unique per node when durability is on.
  ingest::IngestOptions pipeline;
  /// Count-growth shipping trigger (shipping.h).
  double theta = 0.05;
  RetryPolicy retry;
};

class IngestNode {
 public:
  /// Builds the node (running pipeline recovery first in durable mode) and
  /// loads its NodeMeta epoch horizon. nullptr when the pipeline refuses
  /// its options. A node that recovered prior state starts with a pending
  /// re-ship so the coordinator converges without waiting for growth.
  static std::unique_ptr<IngestNode> Create(const IngestNodeOptions& options);

  ~IngestNode();
  IngestNode(const IngestNode&) = delete;
  IngestNode& operator=(const IngestNode&) = delete;

  /// One update observed at virtual time `now`; ships through `tx` when
  /// the count trigger fires.
  void Observe(const Update& update, uint64_t now, FaultyChannel& tx);

  /// Handles one (possibly corrupted) ack delivery. A corrupt ack, or one
  /// addressed to another node, is dropped.
  void HandleAck(const std::string& bytes);

  /// Advances virtual time: ships a requested reship, or retransmits when
  /// an unacked shipment's backoff deadline has passed.
  void Tick(uint64_t now, FaultyChannel& tx);

  /// Flushes the pipeline and ships the complete current state under a
  /// fresh epoch (quiesce path). No-op while the node has observed
  /// nothing.
  void ShipComplete(uint64_t now, FaultyChannel& tx);

  /// Stream positions this incarnation accounts for: everything recovery
  /// promised (ResumeSeq() - 1) plus everything pushed since. After the
  /// producer finishes its re-push this equals the node's full stream
  /// length.
  uint64_t ObservedCount() const;

  /// First stream position (1-based) the producer must (re-)push; the
  /// pipeline's restart contract verbatim.
  uint64_t ResumeSeq() const { return pipeline_->ResumeSeq(); }
  uint64_t DurableSeq() const { return pipeline_->DurableSeq(); }
  const ingest::RecoveryInfo& recovery() const {
    return pipeline_->recovery();
  }

  /// True when the coordinator provably holds this node's complete state:
  /// the newest epoch is acked and it covered every observed update. This
  /// is epoch-based on purpose -- it stays meaningful for turnstile
  /// streams, where the sketch count (net of deletions) and the update
  /// count diverge.
  bool FullyAcked() const {
    return !rules_.HasUnacked() &&
           rules_.last_shipped_count() == ObservedCount();
  }

  uint32_t id() const { return options_.node; }
  uint64_t last_sent_epoch() const { return rules_.last_sent_epoch(); }

  /// The node's pipeline, for local queries and metrics. The shipping
  /// bookkeeping is bypassed -- do not push through it directly.
  ingest::IngestPipeline& pipeline() { return *pipeline_; }

 private:
  IngestNode(const IngestNodeOptions& options,
             std::unique_ptr<ingest::IngestPipeline> pipeline);

  /// Flushes, clones the view, and offers it under a fresh epoch.
  void Ship(uint64_t now, FaultyChannel& tx, bool retransmit);
  /// Persists NodeMeta (durable mode only; best effort -- a failure is
  /// covered by the coordinator's ack fast-forward).
  void PersistMeta();

  IngestNodeOptions options_;
  std::unique_ptr<ingest::IngestPipeline> pipeline_;
  ShippingRules rules_;
};

}  // namespace streamq::cluster

#endif  // STREAMQ_CLUSTER_INGEST_NODE_H_
