// The shipping rules every sender follows: a monitor site (site.h) and a
// cluster node (ingest_node.h) both call one ShippingRules.
//
//  * Count trigger: ship when the observed count has grown by a factor
//    (1 + theta) since the last shipment. The first observation ships at
//    once.
//  * Epochs: every shipment, retransmits included, carries a fresh,
//    monotone epoch. Shipments are cumulative (the sender's full current
//    summary), so any one delivery supersedes everything before it.
//  * Capped exponential backoff: an unacked shipment is re-offered after
//    initial_backoff ticks, the wait doubling per retransmit up to
//    max_backoff. A fresh shipment resets it.
//  * Ack fast-forward: an ack beyond any epoch this incarnation issued
//    means the coordinator holds state from a previous life. The horizon
//    jumps past it and the sender re-ships, so a restart resynchronises
//    with no extra handshake.
//  * Reship flag: a requested reship (fast-forward, the coordinator's
//    kAckFlagReship probe, a node's recovered state) goes out as a fresh
//    shipment on the next Tick.
//
// The rules keep only the bookkeeping. The sender owns its summary and
// its channel: it asks Triggered() or Tick(), builds the shipment under
// the epoch Shipped() issues, and sends it.

#ifndef STREAMQ_CLUSTER_SHIPPING_H_
#define STREAMQ_CLUSTER_SHIPPING_H_

#include <cstddef>
#include <cstdint>

#include "cluster/wire.h"

namespace streamq {

/// Retransmission policy, in virtual ticks.
struct RetryPolicy {
  uint64_t initial_backoff = 8;
  uint64_t max_backoff = 1024;
};

class ShippingRules {
 public:
  ShippingRules(double theta, RetryPolicy retry)
      : theta_(theta), retry_(retry) {}

  /// True when `count` observations call for a shipment.
  bool Triggered(uint64_t count) const;

  /// Calls ship(retransmit) when a Tick at `now` is due to send: a
  /// requested reship as a fresh shipment, an unacked one whose backoff
  /// has expired as a retransmit.
  template <typename ShipFn>
  void Tick(uint64_t now, ShipFn&& ship) const {
    if (needs_reship_) {
      ship(/*retransmit=*/false);
    } else if (last_acked_ < last_sent_ && now >= next_retry_at_) {
      ship(/*retransmit=*/true);
    }
  }

  /// Records a shipment covering `count` observations, offered at `now`,
  /// and returns its epoch.
  uint64_t Shipped(uint64_t now, uint64_t count, bool retransmit);

  /// Applies a validated ack addressed to this sender. True when it
  /// fast-forwarded the epoch horizon.
  bool Acked(const AckFrame& ack);

  /// Resumes the epoch horizon a previous incarnation persisted.
  void Resume(uint64_t epoch) { last_sent_ = last_acked_ = epoch; }

  void RequestReship() { needs_reship_ = true; }

  bool HasUnacked() const {
    return needs_reship_ || last_acked_ < last_sent_;
  }
  uint64_t last_sent_epoch() const { return last_sent_; }
  uint64_t last_shipped_count() const { return last_shipped_count_; }
  /// Shipments offered, retransmits included.
  size_t shipments() const { return shipments_; }
  size_t retransmits() const { return retransmits_; }

 private:
  double theta_;
  RetryPolicy retry_;
  uint64_t last_shipped_count_ = 0;
  uint64_t last_sent_ = 0;
  uint64_t last_acked_ = 0;
  uint64_t next_retry_at_ = 0;
  uint64_t backoff_ = 0;
  bool needs_reship_ = false;
  size_t shipments_ = 0;
  size_t retransmits_ = 0;
};

}  // namespace streamq

#endif  // STREAMQ_CLUSTER_SHIPPING_H_
