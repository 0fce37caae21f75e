#include "cluster/ingest_node.h"

#include <algorithm>
#include <utility>

#include "cluster/wire.h"
#include "distributed/ack.h"
#include "durability/storage.h"
#include "obs/trace.h"
#include "quantile/factory.h"

namespace streamq::cluster {

namespace {

std::string MetaPath(const ingest::IngestOptions& options) {
  return options.durability.dir + "/node-meta.sq";
}

}  // namespace

std::unique_ptr<IngestNode> IngestNode::Create(
    const IngestNodeOptions& options) {
  auto pipeline = ingest::IngestPipeline::Create(options.pipeline);
  if (pipeline == nullptr) return nullptr;
  std::unique_ptr<IngestNode> node(
      new IngestNode(options, std::move(pipeline)));
  const durability::DurabilityOptions& d = options.pipeline.durability;
  if (d.enabled && d.storage != nullptr) {
    // Resume the epoch horizon above everything a previous incarnation may
    // have put on the wire. A missing or corrupt meta record degrades to
    // horizon 0: the coordinator's first ack fast-forwards us.
    std::string bytes;
    NodeMeta meta;
    if (d.storage->ReadFile(MetaPath(options.pipeline), &bytes) &&
        DecodeNodeMeta(bytes, &meta) && meta.node == options.node) {
      node->last_sent_epoch_ = meta.last_sent_epoch;
      node->last_acked_epoch_ = meta.last_sent_epoch;
    }
  }
  if (node->pipeline_->recovery().recovered) {
    // Re-offer the recovered state proactively instead of waiting for the
    // count trigger or a coordinator probe.
    node->needs_reship_ = true;
    STREAMQ_TRACE_INSTANT(obs::TracePoint::kClusterRecover, options.node);
  }
  return node;
}

IngestNode::IngestNode(const IngestNodeOptions& options,
                       std::unique_ptr<ingest::IngestPipeline> pipeline)
    : options_(options), pipeline_(std::move(pipeline)) {}

IngestNode::~IngestNode() = default;

uint64_t IngestNode::ObservedCount() const {
  return (pipeline_->ResumeSeq() - 1) + pipeline_->PushedCount();
}

void IngestNode::Observe(const Update& update, uint64_t now,
                         FaultyChannel& tx) {
  pipeline_->Push(update);
  const uint64_t grown = static_cast<uint64_t>(
      options_.theta * static_cast<double>(last_shipped_count_));
  const uint64_t trigger = last_shipped_count_ + std::max<uint64_t>(1, grown);
  if (ObservedCount() >= trigger) Ship(now, tx, /*retransmit=*/false);
}

void IngestNode::Ship(uint64_t now, FaultyChannel& tx, bool retransmit) {
  // Flush so the view -- hence the clone -- covers every observed update;
  // the shipped count then equals ObservedCount() and the coordinator's
  // per-node staleness is exact at ship time.
  pipeline_->Flush();
  uint64_t count = 0;
  std::unique_ptr<QuantileSketch> clone = pipeline_->CloneView(&count);
  if (clone == nullptr) return;  // nothing published yet; nothing to say
  STREAMQ_TRACE_SPAN(obs::TracePoint::kClusterShip, last_sent_epoch_ + 1);
  ClusterShipment shipment;
  shipment.node = options_.node;
  shipment.epoch = ++last_sent_epoch_;
  shipment.durable_seq = pipeline_->DurableSeq();
  shipment.count = count;
  shipment.sketch_frame = SerializeSketch(*clone);
  // Persist the new horizon BEFORE the bytes can reach the wire: a crash
  // between the two leaves a burned epoch, never a reused one.
  PersistMeta();
  tx.Send(now, EncodeShipment(shipment));
  last_shipped_count_ = ObservedCount();
  needs_reship_ = false;
  if (retransmit) {
    backoff_ = std::min(
        std::max(backoff_, options_.retry.initial_backoff) * 2,
        options_.retry.max_backoff);
    ++stats_.retransmits;
  } else {
    backoff_ = options_.retry.initial_backoff;
  }
  next_retry_at_ = now + backoff_;
  ++stats_.shipments;
}

void IngestNode::HandleAck(const std::string& bytes) {
  AckFrame ack;
  if (!DecodeAck(SnapshotType::kClusterAck, bytes, &ack) ||
      ack.node != options_.node) {
    ++stats_.rejected_acks;
    return;
  }
  if (ack.seq > last_sent_epoch_) {
    // The coordinator has accepted epochs this incarnation never issued:
    // state from a pre-crash life. Fast-forward past its horizon and
    // re-ship so the next accepted epoch is provably newer.
    last_sent_epoch_ = ack.seq;
    last_acked_epoch_ = ack.seq;
    needs_reship_ = true;
    PersistMeta();
  } else if (ack.seq > last_acked_epoch_) {
    last_acked_epoch_ = ack.seq;
  }
  if ((ack.flags & kAckFlagReship) != 0) needs_reship_ = true;
}

void IngestNode::Tick(uint64_t now, FaultyChannel& tx) {
  if (needs_reship_ || (HasUnacked() && now >= next_retry_at_)) {
    Ship(now, tx, /*retransmit=*/true);
  }
}

void IngestNode::ShipComplete(uint64_t now, FaultyChannel& tx) {
  Ship(now, tx, /*retransmit=*/false);
}

void IngestNode::PersistMeta() {
  const durability::DurabilityOptions& d = options_.pipeline.durability;
  if (!d.enabled || d.storage == nullptr) return;
  NodeMeta meta;
  meta.node = options_.node;
  meta.last_sent_epoch = last_sent_epoch_;
  meta.durable_seq = pipeline_->DurableSeq();
  // Best effort: on dead storage (post-crash) this fails harmlessly and
  // the next incarnation resyncs via the ack fast-forward instead.
  durability::AtomicWriteFile(*d.storage, MetaPath(options_.pipeline),
                              EncodeNodeMeta(meta));
}

}  // namespace streamq::cluster
