// Site half of the distributed quantile monitor.
//
// A site observes its local stream into a GKArray summary (error
// eps_local) and ships it to the coordinator under the shared shipping
// rules (shipping.h): whenever its local count has grown by a factor
// (1 + theta) since the last shipment -- the classic count-triggered
// protocol -- with capped-backoff retransmits until the coordinator
// acknowledges the newest epoch. Each shipment is a ClusterShipment
// (wire.h) whose nested sketch bytes are SerializeSketch of the summary,
// the frame a cluster node ships too.
//
// What is the site's own is the body of a shipment: it flushes the live
// GKArray before serializing. That flush is part of the summary's history
// (later compressions see its result), so it stays on every shipment.

#ifndef STREAMQ_CLUSTER_SITE_H_
#define STREAMQ_CLUSTER_SITE_H_

#include <cstdint>

#include "cluster/channel.h"
#include "cluster/shipping.h"
#include "quantile/cash_register.h"

namespace streamq {

class MonitorSite {
 public:
  /// eps_local: rank-error budget of the local summary (the monitor passes
  /// eps/2); theta: count-growth shipping trigger.
  MonitorSite(int id, double eps_local, double theta, RetryPolicy retry = {});

  /// One element observed locally at time `now`; ships through `tx` when
  /// the count trigger fires.
  void Observe(uint64_t value, uint64_t now, FaultyChannel& tx);

  /// Applies a validated ack addressed to this site.
  void HandleAck(const AckFrame& ack) { rules_.Acked(ack); }

  /// Advances virtual time: ships a requested reship, or retransmits the
  /// current state if an unacked shipment's backoff deadline has passed.
  void Tick(uint64_t now, FaultyChannel& tx);

  /// Ships the current state if it is newer than the last shipment
  /// (used to flush residual staleness, e.g. before quiescing).
  void ForceShip(uint64_t now, FaultyChannel& tx);

  uint64_t count() const { return summary_.Count(); }
  const ShippingRules& shipping() const { return rules_; }

 private:
  void Ship(uint64_t now, FaultyChannel& tx, bool retransmit);

  int id_;
  GkArray summary_;
  ShippingRules rules_;
};

}  // namespace streamq

#endif  // STREAMQ_CLUSTER_SITE_H_
