#include "cluster/ingest_node.h"

#include <utility>

#include "cluster/wire.h"
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
      node->rules_.Resume(meta.last_sent_epoch);
    }
  }
  if (node->pipeline_->recovery().recovered) {
    // Re-offer the recovered state proactively instead of waiting for the
    // count trigger or a coordinator probe.
    node->rules_.RequestReship();
    STREAMQ_TRACE_INSTANT(obs::TracePoint::kClusterRecover, options.node);
  }
  return node;
}

IngestNode::IngestNode(const IngestNodeOptions& options,
                       std::unique_ptr<ingest::IngestPipeline> pipeline)
    : options_(options),
      pipeline_(std::move(pipeline)),
      rules_(options.theta, options.retry) {}

IngestNode::~IngestNode() = default;

uint64_t IngestNode::ObservedCount() const {
  return (pipeline_->ResumeSeq() - 1) + pipeline_->PushedCount();
}

void IngestNode::Observe(const Update& update, uint64_t now,
                         FaultyChannel& tx) {
  pipeline_->Push(update);
  if (rules_.Triggered(ObservedCount())) Ship(now, tx, /*retransmit=*/false);
}

void IngestNode::Ship(uint64_t now, FaultyChannel& tx, bool retransmit) {
  // Flush so the view -- hence the clone -- covers every observed update;
  // the shipped count then equals ObservedCount() and the coordinator's
  // per-node staleness is exact at ship time.
  pipeline_->Flush();
  std::unique_ptr<QuantileSketch> clone = pipeline_->CloneView();
  if (clone == nullptr) return;  // nothing published yet; nothing to say
  STREAMQ_TRACE_SPAN(obs::TracePoint::kClusterShip,
                     rules_.last_sent_epoch() + 1);
  ClusterShipment shipment;
  shipment.node = options_.node;
  shipment.epoch = rules_.Shipped(now, ObservedCount(), retransmit);
  shipment.count = clone->Count();
  shipment.sketch_frame = SerializeSketch(*clone);
  // Persist the new horizon BEFORE the bytes can reach the wire: a crash
  // between the two leaves a burned epoch, never a reused one.
  PersistMeta();
  tx.Send(now, EncodeShipment(shipment));
}

void IngestNode::HandleAck(const std::string& bytes) {
  AckFrame ack;
  if (!DecodeAck(bytes, &ack) || ack.node != options_.node) return;
  // A fast-forward means the coordinator has accepted epochs this
  // incarnation never issued (state from a pre-crash life); persist the
  // new horizon so the next accepted epoch is provably newer.
  if (rules_.Acked(ack)) PersistMeta();
}

void IngestNode::Tick(uint64_t now, FaultyChannel& tx) {
  rules_.Tick(now, [&](bool retransmit) { Ship(now, tx, retransmit); });
}

void IngestNode::ShipComplete(uint64_t now, FaultyChannel& tx) {
  Ship(now, tx, /*retransmit=*/false);
}

void IngestNode::PersistMeta() {
  const durability::DurabilityOptions& d = options_.pipeline.durability;
  if (!d.enabled || d.storage == nullptr) return;
  NodeMeta meta;
  meta.node = options_.node;
  meta.last_sent_epoch = rules_.last_sent_epoch();
  // Best effort: on dead storage (post-crash) this fails harmlessly and
  // the next incarnation resyncs via the ack fast-forward instead.
  durability::AtomicWriteFile(*d.storage, MetaPath(options_.pipeline),
                              EncodeNodeMeta(meta));
}

}  // namespace streamq::cluster
