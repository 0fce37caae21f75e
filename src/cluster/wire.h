// Wire format of the shipping protocol (DESIGN.md sections 8 and 13),
// shared by both kinds of sender: monitor sites and cluster nodes.
//
// Three record types:
//
//  * ClusterShipment (sender -> coordinator): an epoch-numbered,
//    cumulative snapshot of one sender's full summary. Epochs are monotone
//    per sender and fresh on every (re)transmission, so the coordinator
//    can dedup duplicates and discard stale reorders while any single
//    delivery brings it fully up to date.
//  * AckFrame (coordinator -> sender): the coordinator's highest accepted
//    epoch for the sender, plus protocol flags (kAckFlagReship, the
//    staleness probe's re-request).
//  * NodeMeta (node -> its own durable directory, never the network): the
//    epoch horizon a node persists beside its WAL so a restarted
//    incarnation resumes issuing epochs above everything a previous life
//    may have put on the wire. Losing it is safe -- the coordinator's acks
//    fast-forward a behind-the-horizon node -- it only short-circuits that
//    round trip.
//
// All three are CRC32C-framed snapshots (util/serde.h): a flipped byte
// anywhere fails the frame check before a single payload byte is
// interpreted, so a corrupted ack is dropped, never misparsed into a bogus
// epoch horizon. The shipment's sketch bytes are themselves a nested
// SerializeSketch frame, so the payload is double-checksummed end to end.

#ifndef STREAMQ_CLUSTER_WIRE_H_
#define STREAMQ_CLUSTER_WIRE_H_

#include <cstdint>
#include <string>

namespace streamq {

/// The receiver wants the sender to re-ship its current state under a
/// fresh epoch (the coordinator's staleness probe).
inline constexpr uint32_t kAckFlagReship = 1u;

/// Payload layout (fixed 16 bytes): node u32 | seq u64 | flags u32.
struct AckFrame {
  uint32_t node = 0;  ///< sender id the ack is addressed to
  uint64_t seq = 0;   ///< receiver's highest accepted epoch
  uint32_t flags = 0;
};

/// Encodes `ack` as a CRC32C-framed kClusterAck snapshot.
std::string EncodeAck(const AckFrame& ack);

/// Strict inverse of EncodeAck: full frame validation (magic, version,
/// type tag, exact length, CRC32C) then an exact payload parse. Returns
/// false -- leaving *out untouched -- on any mismatch, so any single-byte
/// corruption of an ack is detected and the ack discarded.
bool DecodeAck(const std::string& bytes, AckFrame* out);

}  // namespace streamq

namespace streamq::cluster {

/// One cumulative sender snapshot. `count` duplicates the sketch's Count()
/// so the coordinator can cross-check the decoded sketch against the
/// sender's claim before installing it.
struct ClusterShipment {
  uint32_t node = 0;
  uint64_t epoch = 0;        ///< monotone per sender; 0 never shipped
  uint64_t count = 0;        ///< sketch Count() at ship time
  std::string sketch_frame;  ///< SerializeSketch() of the sender's summary
};

std::string EncodeShipment(const ClusterShipment& shipment);

/// Full frame validation then an exact payload parse; false -- leaving
/// *out untouched -- on any corruption or trailing bytes.
bool DecodeShipment(const std::string& bytes, ClusterShipment* out);

/// Per-node durable meta record (stored at "<node dir>/node-meta.sq").
struct NodeMeta {
  uint32_t node = 0;
  uint64_t last_sent_epoch = 0;
};

std::string EncodeNodeMeta(const NodeMeta& meta);
bool DecodeNodeMeta(const std::string& bytes, NodeMeta* out);

}  // namespace streamq::cluster

#endif  // STREAMQ_CLUSTER_WIRE_H_
