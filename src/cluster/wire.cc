#include "cluster/wire.h"

#include "util/serde.h"

namespace streamq {

std::string EncodeAck(const AckFrame& ack) {
  SerdeWriter w;
  w.U32(ack.node);
  w.U64(ack.seq);
  w.U32(ack.flags);
  return FrameSnapshot(SnapshotType::kClusterAck, w.Take());
}

bool DecodeAck(const std::string& bytes, AckFrame* out) {
  std::string payload;
  if (!UnframeSnapshot(bytes, SnapshotType::kClusterAck, &payload)) {
    return false;
  }
  SerdeReader r(payload);
  AckFrame ack;
  if (!r.U32(&ack.node) || !r.U64(&ack.seq) || !r.U32(&ack.flags) ||
      !r.Done()) {
    return false;
  }
  *out = ack;
  return true;
}

}  // namespace streamq

namespace streamq::cluster {

std::string EncodeShipment(const ClusterShipment& shipment) {
  SerdeWriter w;
  w.U32(shipment.node);
  w.U64(shipment.epoch);
  w.U64(shipment.count);
  w.Bytes(shipment.sketch_frame);
  return FrameSnapshot(SnapshotType::kClusterShipment, w.Take());
}

bool DecodeShipment(const std::string& bytes, ClusterShipment* out) {
  std::string payload;
  if (!UnframeSnapshot(bytes, SnapshotType::kClusterShipment, &payload)) {
    return false;
  }
  SerdeReader r(payload);
  ClusterShipment shipment;
  if (!r.U32(&shipment.node) || !r.U64(&shipment.epoch) ||
      !r.U64(&shipment.count) || !r.Bytes(&shipment.sketch_frame) ||
      !r.Done()) {
    return false;
  }
  *out = std::move(shipment);
  return true;
}

std::string EncodeNodeMeta(const NodeMeta& meta) {
  SerdeWriter w;
  w.U32(meta.node);
  w.U64(meta.last_sent_epoch);
  return FrameSnapshot(SnapshotType::kClusterNodeMeta, w.Take());
}

bool DecodeNodeMeta(const std::string& bytes, NodeMeta* out) {
  std::string payload;
  if (!UnframeSnapshot(bytes, SnapshotType::kClusterNodeMeta, &payload)) {
    return false;
  }
  SerdeReader r(payload);
  NodeMeta meta;
  if (!r.U32(&meta.node) || !r.U64(&meta.last_sent_epoch) || !r.Done()) {
    return false;
  }
  *out = meta;
  return true;
}

}  // namespace streamq::cluster
